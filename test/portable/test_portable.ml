(* The portable (scalar-only) build of the ChaCha20/Poly1305 C stub
   against the reference oracle. *)

module Oracle = Kernel_oracle.Make (Chacha20) (Poly1305)

let () = Alcotest.run "portable-kernels" [ ("kernels", Oracle.tests) ]
