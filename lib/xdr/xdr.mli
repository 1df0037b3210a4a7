(** XDR (RFC 4506) encoding, the wire format of ONC RPC and NFS.
    Covers the subset those protocols need: 32/64-bit integers,
    booleans, variable and fixed opaques/strings, with 4-byte
    alignment padding. *)

exception Decode_error of string

module Enc : sig
  type t
  (** A growable byte arena. One arena carries a whole message from
      XDR encode through ESP seal: writers append at the tail, and
      {!reserve_uint32}/{!patch_uint32} let a caller leave a hole (a
      length word, a reply status) to fill once the tail is known.

      {b Gather.} Besides its own bytes, an arena can {!borrow} ranges
      of strings it does not own: the message is then a gather list,
      own bytes with borrowed ranges spliced in at the points they
      were borrowed, and nothing is copied until {!gather} (the ESP
      seal) or {!to_string} reads the message out. Every operation
      works on the logical message: {!length}, {!truncate},
      {!sub_writer} and the reserve/patch pair behave exactly as they
      would had each borrowed range been appended with {!raw}.

      {b Borrow contract.} A borrowed range must stay unchanged for as
      long as the arena lives — including any time it spends recorded
      in a duplicate-request cache. OCaml strings satisfy this by
      construction; a [bytes] block passed in through
      [Bytes.unsafe_to_string] may be borrowed only when its owner
      never writes to it again (the buffer cache's shared blocks,
      [Ffs.Bcache]). *)

  type patch
  (** Handle to a reserved word, returned by {!reserve_uint32} and
      consumed by {!patch_uint32}. *)

  val create : unit -> t
  val length : t -> int
  (** Bytes in the message so far, borrowed ranges included. *)

  val uint32 : t -> int -> unit
  (** Raises [Invalid_argument] outside [0, 2^32). *)

  val uint64 : t -> int64 -> unit
  val bool : t -> bool -> unit
  val opaque : t -> string -> unit
  (** Variable-length opaque: u32 length + bytes + padding. *)

  val opaque_fixed : t -> int -> string -> unit
  (** Fixed-length opaque of exactly [n] bytes + padding. *)

  val string : t -> string -> unit
  (** Same encoding as {!opaque}. *)

  val raw : t -> string -> unit
  (** Append pre-marshalled bytes verbatim (no length, no padding);
      used to nest one XDR body inside another message. *)

  val borrow : t -> string -> off:int -> len:int -> unit
  (** [borrow t s ~off ~len] appends [s.[off .. off+len)] by reference
      (no copy, no length, no padding), under the borrow contract
      above. Wire-identical to [raw t (String.sub s off len)]. Raises
      [Invalid_argument] on a range outside [s]. *)

  val ensure : t -> int -> unit
  (** [ensure t n] makes room for [n] more own bytes now, so a body
      whose size is known up front grows the arena at most once
      instead of doubling its way there. *)

  val reserve_uint32 : t -> patch
  (** Append a zero word and return a handle to it, for a length or
      status word to be patched later. *)

  val patch_uint32 : t -> patch -> int -> unit
  (** Overwrite a reserved word in place. Raises [Invalid_argument]
      on an out-of-range value or a handle outside the written
      region. *)

  val truncate : t -> int -> unit
  (** [truncate t n] drops everything written after the first [n]
      bytes, cutting a borrowed range short if [n] falls inside it;
      used to discard a partly encoded body when its writer fails.
      Raises [Invalid_argument] unless [0 <= n <= length t]. *)

  val sub_writer : t -> (t -> unit) -> unit
  (** Variable-length opaque whose body is produced by a writer:
      reserves the length word, runs the writer against the same
      arena, then patches the length and appends the XDR padding.
      Wire-identical to [opaque t (… to_string of a nested arena …)]
      without the intermediate copy; the writer may {!borrow}. *)

  val gather : t -> Bytes.t -> int -> unit
  (** [gather t dst off] copies the whole message — own bytes and
      borrowed ranges in order — into [dst] at [off]: the one copy the
      ESP seal makes, straight into the wire packet. *)

  val to_string : t -> string
  (** The message as one string ({!gather} into a fresh one). *)
end

module Dec : sig
  type t
  (** A read cursor over a range of a string. A cursor left on a
      message body (the RPC layer hands out ones positioned on call
      arguments and reply results) is a view of that body, decoded
      where it lies; an opened ESP packet is such a view, bounded to
      its plaintext. *)

  val of_string : string -> t

  val sub : string -> off:int -> len:int -> t
  (** [sub s ~off ~len] is a cursor over [s.[off .. off+len)] alone:
      decoding stops at the end of the range exactly as {!of_string}
      stops at the end of a string. Raises [Invalid_argument] on a
      range outside [s]. *)

  val uint32 : t -> int
  val uint64 : t -> int64
  val bool : t -> bool
  val opaque : t -> string
  (** Raises {!Decode_error} on truncation or non-zero pad bytes
      (RFC 4506 requires canonical zero padding). *)

  val opaque_with : t -> (string -> off:int -> len:int -> 'a) -> 'a
  (** Decode a variable-length opaque (checked exactly as {!opaque})
      and hand its bytes to [f] as a range of the underlying string
      instead of copying them out — for a caller that moves the bytes
      straight to their destination. *)

  val opaque_fixed : t -> int -> string
  val string : t -> string
  val remaining : t -> int
  (** Bytes left before the end of the view. *)

  val rest : t -> string
  (** The bytes not yet decoded, consuming them. *)

  val expect_end : t -> unit
  (** Raises {!Decode_error} if bytes remain. *)
end
