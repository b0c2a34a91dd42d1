(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the root primitive for the whole trust stack: HMAC,
    Merkle trees, hash-based signatures, certificate fingerprints, and
    remote-attestation measurements are all built on it.

    Two kernels compress, and they give the same digests byte for byte.
    - {b The hardware kernel}, in [sha256_stubs.c], runs the x86-64 SHA
      extensions ([sha256rnds2], [sha256msg1], [sha256msg2]).  It is
      chosen once, when the module is initialised, if CPUID reports
      SHA, SSSE3 and SSE4.1 ({!hardware}).  On any other CPU,
      architecture or C compiler the stub only answers "absent".
    - {b The portable kernel} is OCaml and runs everywhere else; it is
      also the reference the tests check the hardware kernel against,
      through {!Portable}.  Its compression function is straight-line
      code over unboxed [int64] locals: the 16 message words, the 48
      schedule words and the 64 rounds are written out, with each round
      constant a literal, so nothing is boxed, no operation pays OCaml's
      integer-tag fix-up, and no round loads a constant, indexes a
      schedule array or closes a loop.  Every rotation reads the
      doubled word [x lor (x lsl 32)], whose bits [n] to [n + 31] are
      [x] rotated right by [n] (SHA-256 rotates by at most 25).

    {!feed}, {!digest_into} and the padding each pass all of their
    whole blocks to the chosen kernel in one call, and the hardware
    kernel reads and writes the context's chaining state in place.
    {!digest_slots} passes a whole run of 32-byte messages, padding
    and all.  A host without the extensions pays one branch per call
    over the portable kernel alone.

    Costs: a digest of [n] bytes compresses [n / 64 + 1] blocks, one
    more when [n mod 64 >= 56]; compressing allocates nothing, on
    either kernel.  {!digest} allocates 31 words whatever [n] (context,
    chaining state, block buffer, result); {!digest_into} hashes a
    slice of a [Bytes.t] into a slot of another through a context the
    caller owns, and allocates nothing, which is how an audit log
    hashes its entries.  {!digest_slots} hashes [count] 32-byte slices
    into [count] slots in one call, which is how a Lamport leaf hashes
    its 512 preimages.  On a 2-core shared x86-64 VM (a Xeon whose
    flags list [sha_ni]), the best of seven 100 000-digest loops over
    32 bytes read 0.36-0.38 us for {!digest} and 0.34-0.36 us for
    {!digest_into} on the portable kernel, and 0.12 and 0.09 us on the
    hardware kernel; {!digest_slots} took 0.33 and 0.04 us per digest;
    a 16 KiB slice took 301-336 and 44-47 ns per block (DESIGN.md, "The
    hardware kernel").  The test suite checks both kernels against the
    FIPS test vectors and against a reference implementation over
    [int32]. *)

type digest = string
(** 32 raw bytes. *)

val digest : string -> digest
(** [digest msg] hashes the whole string. *)

val hex : digest -> string
(** Lowercase hexadecimal rendering (64 chars). *)

val digest_hex : string -> string
(** [digest_hex msg = hex (digest msg)]. *)

type ctx
(** Streaming interface for hashing large or incremental input. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val finalize : ctx -> digest
(** [finalize] may be called once; the context must not be reused. *)

val digest_concat : string list -> digest
(** Hash the concatenation without building it. *)

val digest_into : ctx -> Bytes.t -> off:int -> len:int -> Bytes.t -> at:int -> unit
(** [digest_into ctx src ~off ~len out ~at] writes the digest of the
    [len] bytes of [src] from [off] into the 32 bytes of [out] from
    [at], allocating nothing.  [ctx] is working state the caller owns:
    it is reset first, so one context serves any number of calls,
    whatever it held; afterwards it counts as finalized.  Contexts are
    not shared between domains.  Raises [Invalid_argument] if the slice
    or the slot lies outside its buffer. *)

val digest_slots : ctx -> Bytes.t -> off:int -> count:int -> Bytes.t -> at:int -> unit
(** [digest_slots ctx src ~off ~count out ~at] writes the digest of
    each of the [count] 32-byte slices of [src] from [off] into the
    [count] 32-byte slots of [out] from [at]: slice [i] (the bytes from
    [off + 32 i]) into slot [i] (from [at + 32 i]), in that order,
    allocating nothing.  It equals [count] calls of {!digest_into} with
    [~len:32].  On the hardware kernel it is one call into C: a 32-byte
    message is one block whose padding is constant, so each digest is
    one compression from the initial state, kept in registers and
    stored big-endian, with no reset, padding fill or per-word store in
    OCaml: 38-40 ns per digest on the VM above, where {!digest_into} of
    32 bytes took 88-94 ns in the same runs.  Messages are hashed one
    at a time, not interleaved: a block's 64 rounds are one chain of
    dependent instructions, yet interleaving two messages gained at
    most 3% on that CPU (DESIGN.md, "The hardware kernel").  Elsewhere
    it is a loop of the portable {!digest_into}, through [ctx]; the
    hardware kernel leaves [ctx] alone, so afterwards the context
    serves further digests but is not to be fed or finalized.  Raises
    [Invalid_argument] if [count] is negative or the slices or the
    slots run outside their buffer. *)

val hardware : bool
(** [true] when this process compresses on the CPU's SHA-256
    instructions: x86-64, built with gcc 7 or later or clang 6 or later,
    on a CPU whose CPUID reports SHA, SSSE3 and SSE4.1.  Fixed at
    initialisation. *)

(** The portable kernel, whatever {!hardware} says: the same functions
    as above, on the same contexts, compressing in OCaml.  The tests
    hold the chosen kernel to it. *)
module Portable : sig
  val digest : string -> digest
  val feed : ctx -> string -> unit
  val finalize : ctx -> digest
  val digest_into : ctx -> Bytes.t -> off:int -> len:int -> Bytes.t -> at:int -> unit
  val digest_slots : ctx -> Bytes.t -> off:int -> count:int -> Bytes.t -> at:int -> unit
end
