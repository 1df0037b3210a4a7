(* discfs-lint: atomic-section — span-stack mutation never spans a yield: the
   pooled (interleaved) paths record metrics only and open no spans, so the
   strictly nested enter/exit discipline holds per slice. *)

module Metrics = Metrics

type span = {
  id : int;
  parent : int;
  name : string;
  attrs : (string * string) list;
  t_begin : float;
  t_end : float;
  self : float;
}

(* An open span on the stack; [child_time] accumulates the durations
   of direct children so self-time can be computed at end. *)
type frame = {
  f_id : int;
  f_parent : int;
  f_name : string;
  f_attrs : (string * string) list;
  f_begin : float;
  mutable child_time : float;
}

type t = {
  on : bool;
  now : unit -> float;
  mx : Metrics.t option;
  mutable next_id : int;
  mutable stack : frame list;
  ring : span option array;
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable n_dropped : int;
  mutable sink : (span -> unit) option;
}

let dummy_now () = 0.

let make ~on ?metrics ~now capacity =
  {
    on;
    now;
    mx = metrics;
    next_id = 1;
    stack = [];
    ring = Array.make (max 1 capacity) None;
    head = 0;
    len = 0;
    n_dropped = 0;
    sink = None;
  }

let null = make ~on:false ~now:dummy_now 1

let create ?(capacity = 65536) ?metrics ~now () =
  make ~on:true ?metrics ~now capacity

let enabled t = t.on

let push_ring t s =
  let cap = Array.length t.ring in
  if t.len = cap then t.n_dropped <- t.n_dropped + 1 else t.len <- t.len + 1;
  t.ring.(t.head) <- Some s;
  t.head <- (t.head + 1) mod cap

let complete t frame t_end =
  let dur = t_end -. frame.f_begin in
  let self = Float.max 0. (dur -. frame.child_time) in
  (match t.stack with p :: _ -> p.child_time <- p.child_time +. dur | [] -> ());
  let s =
    {
      id = frame.f_id;
      parent = frame.f_parent;
      name = frame.f_name;
      attrs = frame.f_attrs;
      t_begin = frame.f_begin;
      t_end;
      self;
    }
  in
  push_ring t s;
  (match t.mx with
  | Some m ->
      Metrics.incr m ("span." ^ s.name);
      Metrics.observe (Metrics.histogram m ("span.self." ^ s.name)) s.self
  | None -> ());
  match t.sink with Some f -> f s | None -> ()

let begin_span t ?(attrs = []) name =
  if not t.on then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with f :: _ -> f.f_id | [] -> -1 in
    let frame =
      {
        f_id = id;
        f_parent = parent;
        f_name = name;
        f_attrs = attrs;
        f_begin = t.now ();
        child_time = 0.;
      }
    in
    t.stack <- frame :: t.stack;
    id
  end

let end_span t id =
  if t.on then
    match t.stack with
    | [] -> invalid_arg "Trace.end_span: no open span"
    | f :: rest ->
        if f.f_id <> id then
          invalid_arg
            (Printf.sprintf
               "Trace.end_span: span %d is not innermost (open: %d %S)" id
               f.f_id f.f_name);
        t.stack <- rest;
        complete t f (t.now ())

let span t ?attrs name f =
  if not t.on then f ()
  else
    let id = begin_span t ?attrs name in
    Fun.protect ~finally:(fun () -> end_span t id) f

let instant t ?attrs name =
  if t.on then begin
    let id = begin_span t ?attrs name in
    end_span t id
  end

let depth t = List.length t.stack

let current t = match t.stack with f :: _ -> Some f.f_name | [] -> None

let spans t =
  let cap = Array.length t.ring in
  let start = (t.head - t.len + cap) mod cap in
  List.init t.len (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some s -> s
      | None -> assert false)

let dropped t = t.n_dropped

let reset t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.head <- 0;
  t.len <- 0;
  t.n_dropped <- 0;
  t.stack <- []

let set_sink t f = t.sink <- f

(* -- post-processing ---------------------------------------------------- *)

type tree = { node : span; children : tree list }

let forest spans =
  (* Children complete before their parent and siblings complete in
     begin order, so one left-to-right pass with a pending-children
     table rebuilds the forest. *)
  let pending : (int, tree list) Hashtbl.t = Hashtbl.create 64 in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) spans;
  let add_pending parent node =
    let l = Option.value ~default:[] (Hashtbl.find_opt pending parent) in
    Hashtbl.replace pending parent (node :: l)
  in
  let roots = ref [] in
  List.iter
    (fun s ->
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

let render_forest ?(collapse = true) forest =
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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let span_to_jsonl s =
  let attrs =
    s.attrs
    |> List.map (fun (k, v) ->
           Printf.sprintf "%S:\"%s\"" (json_escape k) (json_escape v))
    |> String.concat ","
  in
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"begin\":%.9f,\"end\":%.9f,\"self\":%.9f,\"attrs\":{%s}}"
    s.id s.parent (json_escape s.name) s.t_begin s.t_end s.self attrs
