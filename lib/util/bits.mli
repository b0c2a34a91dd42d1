(** Bit-string helpers for the covert-channel experiments: secrets are
    encoded as bit lists, transmitted through a side channel, and the
    recovered bits are compared against the original to compute leak
    accuracy. *)

val of_string : string -> bool list
(** MSB-first bits of each byte. *)

val to_string : bool list -> string
(** Inverse of [of_string]; the length must be a multiple of 8. *)

val random : Prng.t -> int -> bool list
(** [random prng n] is [n] uniform bits. *)

val accuracy : bool list -> bool list -> float
(** Fraction of positions that agree; compared up to the shorter length,
    missing positions count as errors against the expected length. *)
