(** Workload generation for the serving simulator: Poisson arrivals over
    multi-turn sessions, the pattern that makes KV prefix caching matter
    (§2's key/value-cache discussion). *)

type spec = {
  rate : float;            (** mean requests per second (Poisson) *)
  duration : float;        (** generation horizon, seconds *)
  sessions : int;          (** concurrent sessions to draw from *)
}

val default_spec : spec
(** 20 req/s for 60 s, 8 sessions. *)

val drive :
  engine:Guillotine_sim.Engine.t ->
  service:Service.t ->
  prng:Guillotine_util.Prng.t ->
  spec ->
  unit
(** Schedule all arrivals for the run; call [Engine.run] afterwards.
    Request lengths are geometric-ish around fixed means, 64 prompt
    and 32 output tokens ([prompt_mean] and [output_mean] in
    [workload.ml]); the session of
    each request is drawn uniformly, so roughly [1/sessions] of
    consecutive requests share a KV prefix. *)
