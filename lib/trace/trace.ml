(* discfs-lint: atomic-section — span-stack mutation never spans a yield:
   each begin_span/end_span pushes or pops within one slice. Nesting across
   processes is not guaranteed: pooled RPC calls open no RPC spans, but the
   handler spans (server tracer) and esp.seal/esp.open (SA tracer) they reach
   interleave when a traced cluster runs workers > 1, and end_span then raises
   "not innermost" (perfbench/NOTES.md, "Known defect"). *)

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
}

let dummy_now () = 0.

let make ~on ?metrics ~now capacity =
  {
    on;
    now;
    mx = metrics;
    next_id = 1;
    stack = [];
    ring = Array.make capacity None;
    head = 0;
    len = 0;
    n_dropped = 0;
  }

let null = make ~on:false ~now:dummy_now 1

let capacity = 65536

let create ?metrics ~now () = make ~on:true ?metrics ~now capacity

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
  match t.mx with
  | Some m ->
      Metrics.incr m ("span." ^ s.name);
      Metrics.observe (Metrics.histogram m ("span.self." ^ s.name)) s.self
  | None -> ()

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
