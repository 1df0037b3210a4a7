(* What the executable prints for run.py: one tab-separated line per
   metric, [metric NAME VALUE UNIT CLASS], and one per descriptive
   fact, [info KEY VALUE]. CLASS is [virtual] for values the seed
   fixes (simulation output, exact counts) and [wall] for host
   measurements; run.py compares the virtual lines of two runs byte
   for byte. *)

exception Check_failed of string

(* An output check that failed: the run aborts with a non-zero exit,
   it is never counted as a failed operation. *)
let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

type cls = Virtual | Wall

type t = { mutable rev : (string * float * string * cls) list }

let create () = { rev = [] }
let add t ?(cls = Wall) name unit_ value = t.rev <- (name, value, unit_, cls) :: t.rev

let print t =
  List.iter
    (fun (name, v, u, cls) ->
      Printf.printf "metric\t%s\t%.17g\t%s\t%s\n" name v u
        (match cls with Virtual -> "virtual" | Wall -> "wall"))
    (List.rev t.rev)

let info key fmt = Printf.ksprintf (fun v -> Printf.printf "info\t%s\t%s\n" key v) fmt
