(** Monitor: the assembled observability plane for one rig.

    Owns a {!Timeseries} store, a {!Watchdog}, a flight {!Recorder},
    and its own telemetry registry ("obs").  Once {!start}ed it samples
    every attached snapshot source on a fixed cadence of the sim
    engine, feeds the series, and evaluates the watchdog; newly raised
    and cleared alerts are emitted as [alert.raised] / [alert.cleared]
    instants on the "obs" registry — the alert track that shows up in
    the Chrome-trace export alongside the subsystem timelines.

    Sampling only reads metric values and writes monitor-local state:
    it never touches the observed subsystems or their PRNGs, so a
    monitored same-seed run replays byte-identically, and an
    unmonitored run is byte-identical to one that never created a
    monitor. *)

type t

val create : engine:Guillotine_sim.Engine.t -> unit -> t
(** Samples every 0.5 sim-seconds into 1.0 s time-series windows, and
    keeps the last 4096 flight-recorder events. *)

val series : t -> Timeseries.t
val recorder : t -> Recorder.t

val telemetry : t -> Guillotine_telemetry.Telemetry.t
(** The "obs" registry: [samples.taken] / [alerts.raised] /
    [alerts.cleared] counters, [series.tracked] gauge, and the alert
    instants. *)

val add_source : t -> (unit -> Guillotine_telemetry.Telemetry.snapshot) -> unit
(** Attach a snapshot thunk; each metric is recorded under
    ["component.metric"].  Counters and gauges feed that series;
    histogram summaries expand to a [.count] series plus, once the
    histogram has samples, [.p50]/[.p90]/[.p99].  Keys are built and
    resolved once per snapshot position, and again only when the
    position's name or value kind changes. *)

val add_registry : t -> Guillotine_telemetry.Telemetry.t -> unit
(** [add_source] on the registry's snapshot. *)

val add_rule : t -> Watchdog.rule -> unit

val start : t -> unit
(** Begin the sampling loop on the engine (idempotent).  The first
    tick lands one period from now. *)

val sample_now : t -> unit
(** One manual sample-and-evaluate tick (used by tests and by
    end-of-run flushes; the periodic loop calls exactly this). *)

val alerts : t -> Watchdog.alert list
val first_alert : t -> Watchdog.alert option

val first_alert_after : t -> at:float -> Watchdog.alert option
(** First alert raised at or after [at] — the detection event for a
    fault injected at [at]. *)
