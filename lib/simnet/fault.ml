(* Deterministic fault injection: a seeded PRNG drives per-link
   network faults (drop/duplicate/reorder/corrupt) and a scripted
   fault table drives disk read/write failures. Everything is
   reproducible: same seed, same fault schedule. *)

module Rng = struct
  (* splitmix64: tiny, fast, and good enough to schedule faults.
     Crypto randomness stays in dcrypto; simnet has no dependencies. *)
  type t = { mutable state : int64 }

  let hash_seed s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    !h

  let create ~seed = { state = hash_seed seed }

  let next t =
    t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t =
    (* 53 uniform bits in [0, 1). *)
    Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

  (* Rejection sampling over the top 63 bits: a bare [rem] would bias
     small residues whenever n does not divide 2^63. Draws landing in
     the truncated final copy of [0, n) are re-drawn; for any sane n
     the rejection probability is ~n/2^63, so this almost never loops. *)
  let int_below t n =
    if n <= 0 then invalid_arg "Fault.Rng.int_below: non-positive bound";
    let bound = Int64.of_int n in
    let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound) in
    let rec draw () =
      let u = Int64.shift_right_logical (next t) 1 in
      if u >= limit then draw () else Int64.to_int (Int64.rem u bound)
    in
    draw ()
end

type net = { drop : float; duplicate : float; reorder : float; corrupt : float }

let no_net = { drop = 0.0; duplicate = 0.0; reorder = 0.0; corrupt = 0.0 }

(* Drop at [p] plus duplicate/reorder/corrupt at [p/4] each. The raw
   recipe sums to 7p/4, which passes 1.0 at p = 4/7 — beyond that the
   [net_decide] cascade would silently starve Corrupt (its threshold
   band gets squeezed out first) and distort Reorder. Scale the whole
   profile back onto the simplex instead so the 4:1:1:1 ratio
   survives at every p. *)
let lossy p =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.lossy: p outside [0, 1]";
  let total = 7.0 *. p /. 4.0 in
  let scale = if total > 1.0 then 1.0 /. total else 1.0 in
  {
    drop = p *. scale;
    duplicate = p /. 4.0 *. scale;
    reorder = p /. 4.0 *. scale;
    corrupt = p /. 4.0 *. scale;
  }

type net_action = Deliver | Drop | Duplicate | Reorder | Corrupt

type disk_fault = Fail_read | Fail_write | Corrupt_read

type t = {
  rng : Rng.t;
  mutable net : net;
  mutable disk_script : (int * disk_fault) list; (* disk op index -> fault *)
  mutable disk_ops : int;
  mutable trace : Trace.t;
}

let create ?(seed = "fault") () =
  { rng = Rng.create ~seed; net = no_net; disk_script = []; disk_ops = 0; trace = Trace.null }

let set_net t net = t.net <- net
let set_trace t trace = t.trace <- trace

let net_decide t =
  let n = t.net in
  if n.drop = 0.0 && n.duplicate = 0.0 && n.reorder = 0.0 && n.corrupt = 0.0 then Deliver
  else begin
    let r = Rng.float t.rng in
    if r < n.drop then Drop
    else if r < n.drop +. n.duplicate then Duplicate
    else if r < n.drop +. n.duplicate +. n.reorder then Reorder
    else if r < n.drop +. n.duplicate +. n.reorder +. n.corrupt then Corrupt
    else Deliver
  end

let corrupt_bytes t s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let pos = Rng.int_below t.rng (Bytes.length b) in
    let flip = 1 + Rng.int_below t.rng 255 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
    Bytes.to_string b
  end

(* --- scripted disk faults ------------------------------------------- *)

let script_disk t faults = t.disk_script <- faults @ t.disk_script

let disk_decide t =
  let op = t.disk_ops in
  t.disk_ops <- op + 1;
  match List.assoc_opt op t.disk_script with
  | None -> None
  | Some f ->
    t.disk_script <- List.filter (fun (i, _) -> i <> op) t.disk_script;
    let kind =
      match f with
      | Fail_read -> "fail_read"
      | Fail_write -> "fail_write"
      | Corrupt_read -> "corrupt_read"
    in
    if Trace.enabled t.trace then
      Trace.instant t.trace ~attrs:[ ("op", string_of_int op) ] ("fault.disk." ^ kind);
    Some f

let disk_ops t = t.disk_ops
