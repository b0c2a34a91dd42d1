(** Primary/backup serving pair with failover — the recovery path for
    in-flight requests when a whole deployment goes down.

    Submissions route to the primary until it is marked down, then
    directly to the backup.  A request that exhausts its attempts on the
    primary (injected brownout, primary death) is re-submitted to the
    backup by the failover handler installed at creation.  Each failover
    bumps the cluster registry's [cluster.failovers] counter alongside
    the per-service [requests.failed_over] accounting. *)

type t

val create :
  engine:Guillotine_sim.Engine.t ->
  primary:Guillotine_serve.Service.t ->
  backup:Guillotine_serve.Service.t ->
  unit ->
  t
(** Installs the failover handler on [primary].  The backup keeps any
    failover handler of its own (none by default: a request failing on
    both deployments is finally lost). *)

val submit : t -> Guillotine_serve.Service.request -> bool
(** Route to the primary, or straight to the backup once the primary is
    down. *)

val failovers : t -> int

val completed : t -> int
(** Total completions across both deployments. *)

val availability : t -> float
(** Completed / submitted across the cluster (1.0 when nothing was
    submitted). *)

val telemetry : t -> Guillotine_telemetry.Telemetry.t
(** The cluster registry ("cluster"): submission routing counters and
    one [cluster.failover] instant per failed-over request. *)
