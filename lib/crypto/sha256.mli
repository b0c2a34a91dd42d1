(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the root primitive for the whole trust stack: HMAC,
    Merkle trees, hash-based signatures, certificate fingerprints, and
    remote-attestation measurements are all built on it.  The
    implementation is pure OCaml: 32-bit words are held in native ints,
    masked after each addition, so compressing a block allocates
    nothing and a 32-byte digest allocates under 100 words.  The test
    suite checks it against the FIPS test vectors and against a
    reference implementation over [int32]. *)

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
