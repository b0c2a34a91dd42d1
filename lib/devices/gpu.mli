(** GPU accelerator device model.

    The model service offloads the bulk of inference to GPUs (§2); for
    the experiments what matters is (a) that GPU work has realistic
    compute-bound latency, (b) that all access is mediated by the port
    API — Guillotine explicitly forbids SR-IOV-style direct assignment
    (§3.3) — and (c) that GPU memory can hold state a rogue model might
    try to hide there, so the hypervisor can clear it.

    Opcodes:
    - [1] H2D:   [1; addr; payload words...] copy into device memory
    - [2] D2H:   [2; addr; len] -> payload = device words
    - [3] GEMM:  [3; addr_a; addr_b; addr_c; n] multiply two n*n word
      matrices in device memory into c (values reduced mod 2^32 to stay
      small); latency is 100 ticks plus one per multiply-accumulate
      (n^3).
    - [4] CLEAR: zero all device memory (hypervisor-initiated scrub).
    - [5] ARGMAX: [5; base; n] -> [index of max over device words
      base..base+n) ] — the inference kernel of the toy model's forward
      step, so generation can run device-side with one port round-trip
      per token.

    The arithmetic is real — tests check actual products — so the GEMM
    path doubles as a deterministic "inference kernel". *)

type t

val create : ?mem_words:int -> name:string -> unit -> t
val device : t -> Device.t

val peek : t -> int -> int64 option
val poke : t -> int -> int64 -> bool

val op_h2d : int
val op_d2h : int
val op_gemm : int
val op_clear : int
val op_argmax : int
