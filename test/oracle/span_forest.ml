(* The span forest of a trace, rebuilt from its completed spans, and
   its rendering as names and nesting only (two-space indent, no
   durations), so a rendering survives cost-model recalibration. The
   golden trace and the trace tests compare renderings. *)

type tree = { node : Trace.span; children : tree list }

(* Spans whose parent was evicted from the ring become roots. *)
let forest spans =
  (* Children complete before their parent and siblings complete in
     begin order, so one left-to-right pass with a pending-children
     table rebuilds the forest. *)
  let pending : (int, tree list) Hashtbl.t = Hashtbl.create 64 in
  let ids = Hashtbl.create 64 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace ids s.id ()) spans;
  let add_pending parent node =
    let l = Option.value ~default:[] (Hashtbl.find_opt pending parent) in
    Hashtbl.replace pending parent (node :: l)
  in
  let roots = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      let children =
        Option.value ~default:[] (Hashtbl.find_opt pending s.id) |> List.rev
      in
      Hashtbl.remove pending s.id;
      let node = { node = s; children } in
      if s.parent >= 0 && Hashtbl.mem ids s.parent then
        add_pending s.parent node
      else roots := node :: !roots)
    spans;
  (* Orphans whose parent never completed (still open / evicted). *)
  Hashtbl.iter (fun _ l -> List.iter (fun n -> roots := n :: !roots) l) pending;
  List.sort (fun a b -> compare a.node.id b.node.id) !roots

type sh = Sh of string * sh list

let rec shape t = Sh (t.node.name, List.map shape t.children)

let render ?(collapse = true) forest =
  let buf = Buffer.create 256 in
  let rec render indent nodes =
    match nodes with
    | [] -> ()
    | n :: rest ->
        let same, rest =
          if collapse then
            let sh = shape n in
            let rec split acc = function
              | m :: tl when shape m = sh -> split (acc + 1) tl
              | tl -> (acc, tl)
            in
            split 1 rest
          else (1, rest)
        in
        Buffer.add_string buf indent;
        Buffer.add_string buf n.node.name;
        if same > 1 then Buffer.add_string buf (Printf.sprintf " x%d" same);
        Buffer.add_char buf '\n';
        render (indent ^ "  ") n.children;
        render indent rest
  in
  render "" forest;
  Buffer.contents buf
