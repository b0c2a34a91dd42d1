(** Branch predictor: a table of 2-bit saturating counters indexed by
    low PC bits.

    Predictor state is microarchitectural residue.  On the baseline
    machine the same predictor object serves both hypervisor and guest
    execution (as SMT/co-resident execution does in real CPUs), so a
    guest can measure hypervisor control flow through mispredict
    timing.  Guillotine gives every core a private predictor and lets
    the hypervisor clear it. *)

type t = {
  counters : int array; (* 0..3; >=2 predicts taken *)
  mispredict_penalty : int;
}
(** Exposed for the core's branch ops, which inline
    {!predict_and_update} with the PC index baked in.  The inline must
    keep cost and counter training exactly as {!predict_and_update}
    would. *)

val create : ?entries:int -> ?mispredict_penalty:int -> unit -> t
(** Defaults: 1024 entries, 12-cycle penalty. *)

val predict_and_update : t -> pc:int -> taken:bool -> int
(** Returns the cycle cost of the branch: 1 if predicted correctly,
    [1 + mispredict_penalty] otherwise; then trains the counter. *)

val reset : t -> unit
(** Clear all counters to weakly-not-taken. *)
