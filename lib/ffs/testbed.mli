(** The volume geometry of the paper's testbed (§6): one FFS volume
    of 8 KB blocks. Every deployment builds its volume with these. *)

val nblocks : int
(** 16 Ki blocks: a 128 MB volume. *)

val block_size : int
(** 8 KB, the block size of the measured FFS. *)

val ninodes : int
(** 8 Ki inodes. *)
