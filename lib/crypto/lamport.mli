(** Lamport one-time signatures over SHA-256 digests.

    A keypair holds 256 pairs of secret 32-byte preimages; the public
    key is their hashes.  Signing reveals one preimage per message-digest
    bit.  Security collapses if a key signs twice, so higher layers use
    the Merkle few-time scheme in {!Signature}; this module enforces the
    one-time property at runtime. *)

type secret_key
type public_key = string
(** Serialized: 512 concatenated 32-byte hashes (16 KiB). *)

type signature = string
(** 256 concatenated 32-byte preimages (8 KiB). *)

val generate : Guillotine_util.Prng.t -> secret_key * public_key
(** Deterministic from the PRNG stream — simulation keys, not wall-clock
    entropy.  The 512 preimages are the stream's next {!prng_draws}
    draws, each little-endian, in one 16 KiB buffer (preimage [k] at
    byte [32 k]); one {!Sha256.digest_slots} call writes their 512
    digests straight into the public key.  Besides the two 16 KiB
    buffers, which the runtime allocates in the major heap, a key costs
    a few dozen minor words (the call's SHA-256 context among them). *)

val prng_draws : int
(** {!Guillotine_util.Prng.int64} draws one [generate] makes (2048). *)

val sign : secret_key -> string -> signature
(** [sign sk msg] signs SHA-256(msg) by copying the 256 revealed
    preimages.  Raises [Invalid_argument] on a second use of [sk]. *)

val verify : ?ctx:Sha256.ctx -> public_key -> msg:string -> signature -> bool
(** Hashes the message through [ctx] (a fresh context by default,
    reset first and reusable afterwards, as for {!Sha256.digest_into}),
    then each revealed preimage in turn with a one-slot
    {!Sha256.digest_slots} call, comparing its digest in place with its
    public-key slot and stopping at the first that differs. *)
