(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the root primitive for the whole trust stack: HMAC,
    Merkle trees, hash-based signatures, certificate fingerprints, and
    remote-attestation measurements are all built on it.  The
    implementation is pure OCaml for a 64-bit host.  The compression
    function is straight-line code over unboxed [int64] locals: the 16
    message words, the 48 schedule words and the 64 rounds are written
    out, with each round constant a literal, so nothing is boxed, no
    operation pays OCaml's integer-tag fix-up, and no round loads a
    constant, indexes a schedule array or closes a loop.  Every
    rotation reads the doubled word [x lor (x lsl 32)], whose bits [n]
    to [n + 31] are [x] rotated right by [n] (SHA-256 rotates by at
    most 25).

    Costs: a digest of [n] bytes compresses [n / 64 + 1] blocks, one
    more when [n mod 64 >= 56]; compressing allocates nothing.
    {!digest} allocates 31 words whatever [n] (context, chaining state,
    block buffer, result); {!digest_into} hashes a slice of a [Bytes.t]
    into a slot of another through a context the caller owns, and
    allocates nothing, which is how a Lamport leaf hashes its 512
    preimages and an audit log its entries.  On a 2-core shared x86-64
    VM the best of seven 100 000-digest loops over 32 bytes read
    0.41-0.42 us for {!digest} and 0.38 us for {!digest_into}, against
    0.65-0.67 and 0.57 us for the rolled loop over native ints in the
    same runs.  The test suite checks the digest against the FIPS test
    vectors and against a reference implementation over [int32]. *)

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
