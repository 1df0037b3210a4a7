module Clock = Simnet.Clock
module Cost = Simnet.Cost

type result = {
  label : string;
  size_bytes : int;
  out_char_kps : float;
  out_block_kps : float;
  rewrite_kps : float;
  in_char_kps : float;
  in_block_kps : float;
}

let chunk_size = 8192

let pattern_chunk =
  String.init chunk_size (fun i -> Char.chr (32 + ((i * 7) mod 95)))

(* Simulated stdio: a getc/putc loop costs [char_io] per character of
   client CPU on top of the underlying 8 K block transfer, exactly
   how Bonnie's char phases differ from its block phases. *)
let char_cost (b : Backend.t) n =
  Clock.advance b.Backend.clock (float_of_int n *. b.Backend.cost.Cost.char_io)

let throughput_kps bytes seconds =
  if seconds <= 0.0 then infinity else float_of_int bytes /. 1024.0 /. seconds

let phase (b : Backend.t) f =
  let _, dt = Clock.time b.Backend.clock f in
  dt

let run ~backend ?(size_mb = 16) () =
  let b = backend in
  let size = size_mb * 1024 * 1024 in
  let nchunks = size / chunk_size in
  let file = b.Backend.create b.Backend.root "bonnie.scratch" in
  (* Fig. 7: sequential output, one character at a time. *)
  let t_out_char =
    phase b (fun () ->
        for i = 0 to nchunks - 1 do
          char_cost b chunk_size;
          b.Backend.write file ~off:(i * chunk_size) pattern_chunk
        done)
  in
  (* Fig. 8: sequential output in blocks. *)
  let t_out_block =
    phase b (fun () ->
        for i = 0 to nchunks - 1 do
          b.Backend.write file ~off:(i * chunk_size) pattern_chunk
        done)
  in
  (* Fig. 9: rewrite — read each block, dirty it, write it back. *)
  let t_rewrite =
    phase b (fun () ->
        for i = 0 to nchunks - 1 do
          let data = b.Backend.read file ~off:(i * chunk_size) ~len:chunk_size in
          let dirty = Bytes.of_string data in
          if Bytes.length dirty > 0 then Bytes.set dirty 0 '!';
          b.Backend.write file ~off:(i * chunk_size) (Bytes.to_string dirty)
        done)
  in
  (* Fig. 10: sequential input, one character at a time. *)
  let t_in_char =
    phase b (fun () ->
        for i = 0 to nchunks - 1 do
          let data = b.Backend.read file ~off:(i * chunk_size) ~len:chunk_size in
          char_cost b (String.length data)
        done)
  in
  (* Fig. 11: sequential input in blocks. *)
  let t_in_block =
    phase b (fun () ->
        for i = 0 to nchunks - 1 do
          ignore (b.Backend.read file ~off:(i * chunk_size) ~len:chunk_size)
        done)
  in
  b.Backend.remove b.Backend.root "bonnie.scratch";
  {
    label = b.Backend.label;
    size_bytes = size;
    out_char_kps = throughput_kps size t_out_char;
    out_block_kps = throughput_kps size t_out_block;
    rewrite_kps = throughput_kps size t_rewrite;
    in_char_kps = throughput_kps size t_in_char;
    in_block_kps = throughput_kps size t_in_block;
  }
