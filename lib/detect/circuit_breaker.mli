(** Circuit breaking (§3.3): disrupt any forward pass that visits
    problematic areas of the weight graph, preventing the model from
    generating a response at all.

    Stricter than steering: steering rewrites the output and continues;
    the breaker kills the pass the moment it {e reads} a harmful weight
    row or is about to emit a harmful token.  The trade-off the F1
    experiment shows: zero harmful tokens leak, but the response is
    lost. *)

type t

val create : unit -> t
(** The breaker trips when a harmful weight {e row} is read, before any
    harmful token is even chosen, as well as on a harmful candidate. *)

val hook : t -> Guillotine_model.Toymodel.step_event -> Guillotine_model.Toymodel.intervention

val trips : t -> int
(** Forward passes interrupted so far. *)
