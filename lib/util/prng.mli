(** Deterministic pseudo-random number generation.

    All randomness in the simulation flows through this module so that
    every experiment is reproducible from a single seed.  The generator
    is splitmix64, which is statistically strong for simulation purposes
    and trivially splittable: [split] derives an independent stream, which
    lets concurrent simulation components draw numbers without perturbing
    each other's sequences. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator from [seed]. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator, and
    advances [t].  Streams obtained from successive [split]s do not
    overlap in practice. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays [t]'s
    future draws. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val fill_bytes : t -> Bytes.t -> unit
(** [fill_bytes t b] writes the next [Bytes.length b / 8] draws of
    {!int64} into [b], draw [k] little-endian at byte [8 k], and leaves
    [t] where that many calls of {!int64} would.  No draw is boxed: the
    one allocation, whatever the length, is the final state stored back
    into [t] (3 words).  [Bytes.length b] must be a multiple of 8. *)

val skip : t -> int -> unit
(** [skip t n] leaves [t] exactly where [n] calls of {!int64} would, in
    constant time.  [n] must be non-negative. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t rate] draws from Exp(rate); used for Poisson arrival
    processes.  [rate] must be positive. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal draw. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is [k] distinct values drawn
    uniformly from [\[0, n)].  Requires [k <= n]. *)
