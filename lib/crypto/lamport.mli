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
    entropy. *)

val prng_draws : int
(** {!Guillotine_util.Prng.int64} draws one [generate] makes (2048). *)

val sign : secret_key -> string -> signature
(** [sign sk msg] signs SHA-256(msg).  Raises [Invalid_argument] on a
    second use of [sk]. *)

val verify : public_key -> msg:string -> signature -> bool

val public_key_digest : public_key -> string
(** SHA-256 of the public key; the Merkle-scheme leaf value. *)
