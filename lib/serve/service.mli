(** Model-service simulator (§2 background): request queues, model
    replicas, KV prefix caching, and an optional Guillotine mediation
    overhead — the substrate for the serving-throughput experiment F4.

    Structure: one bounded admission queue of 64 requests feeds
    [replicas] identical model replicas.  A request costs
    {v prefill = prompt_tokens * 0.2 ms * (1 - 0.8 if prefix cached)
       decode  = output_tokens * 2 ms v}
    seconds of replica time; each replica's prefix cache holds the
    prefixes of the 32 sessions it served last (a session stands in for
    the prompt prefix its requests share).  These are the constants
    [queue_capacity], [t_prefill], [t_decode], [kv_saving] and
    [kv_entries] in [service.ml].  When the service models a
    Guillotine deployment, each request additionally pays
    [overhead_per_request] plus [overhead_per_token] * total tokens —
    the port-API mediation cost measured in T3, projected to service
    level. *)

type config = {
  replicas : int;
  overhead_per_request : float;
  overhead_per_token : float;
  max_attempts : int;         (** total tries per request (1 = no retry) *)
  shed_watermark : float;     (** queue fraction above which admission sheds;
                                  1.0 disables shedding *)
}

val baseline_config : replicas:int -> config
(** No mediation overhead, no retries, no shedding. *)

val guillotine_config : replicas:int -> config
(** [baseline_config] plus default mediation overhead (2 ms/request,
    20 us/token). *)

val resilient_config : replicas:int -> config
(** [guillotine_config] plus the recovery posture used under fault
    injection: up to 4 attempts with exponential backoff, admission
    shedding above 75% queue occupancy. *)

type request = {
  id : int;
  session : int;              (** requests in a session share a prefix *)
  prompt_tokens : int;
  output_tokens : int;
}

type t

val create :
  ?prng:Guillotine_util.Prng.t -> engine:Guillotine_sim.Engine.t -> config -> t
(** [prng] seeds the attempt-failure draws used by {!set_fault}
    (defaults to a fixed seed, so runs stay deterministic). *)

val submit : t -> request -> bool
(** [false] if the request was shed (queue above the watermark) or the
    admission queue was full (request dropped). *)

(** {2 Fault injection and recovery hooks}

    A dispatched attempt fails when the deployment is marked down or an
    injected fault fires; a failed attempt still occupies its replica
    for the full service time.  Failed attempts are retried after
    50 ms, doubling per attempt ([backoff_base] in [service.ml]), up
    to [max_attempts]; a request that exhausts
    its attempts is handed to the failover handler (if any) or counted
    failed. *)

val set_fault : t -> rate:float -> unit
(** Probability in [0,1] that any dispatched attempt fails.  0 (the
    default) restores fault-free service. *)

val set_down : t -> bool -> unit
(** Mark the whole deployment down: every attempt fails until cleared.
    The fault model of a wedged or powered-off primary. *)

val is_down : t -> bool

val set_slowdown : t -> (unit -> float) -> unit
(** Extra seconds added to every attempt's service time, consulted per
    dispatch — the service-level projection of a stalled device. *)

val set_failover : t -> (request -> unit) -> unit
(** Handler for requests that exhaust their attempts (typically
    [fun r -> ignore (submit backup r)]).  Each invocation records a
    [request.failed_over] instant and bumps [requests.failed_over]. *)

type stats = {
  submitted : int;
  dropped : int;
  completed : int;
  kv_hits : int;
  shed : int;                 (** refused at admission by the watermark *)
  latencies : float list;     (** per completed request, seconds *)
  goodput : float;            (** completed per second of sim time elapsed *)
  busy_fraction : float;      (** mean replica utilisation *)
}

val stats : t -> at:float -> stats
(** Experiment-facing detail record (includes raw latency samples).
    [at] = current sim time, for rate computation. *)

(** {2 Telemetry} *)

val telemetry : t -> Guillotine_telemetry.Telemetry.t
(** The service's registry ("serve"): submission/drop/completion
    counters, queue-depth gauge, latency histogram, one
    [request.service] span per dispatched request.  Its clock is the
    discrete-event engine's sim time. *)

val metrics : t -> Guillotine_telemetry.Telemetry.snapshot
(** Uniform metrics surface — registry values plus computed
    [goodput_rps] / [busy_fraction] gauges at the current sim time. *)

val set_event_sink : t -> (kind:string -> string -> unit) -> unit
(** Forward per-request lifecycle decisions ([request.shed],
    [request.retry], [request.failover], [request.failed]) to an
    external journal — the observability plane's flight recorder. *)
