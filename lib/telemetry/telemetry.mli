(** Unified telemetry: metrics registries, trace spans, and export.

    Every subsystem (hypervisor, machine, serving simulator, control
    console, kill switches) owns a registry created at construction
    time.  A registry holds
    - {b counters} — monotone, integer-valued ({!incr} with a negative
      increment raises);
    - {b gauges} — float-valued, freely settable;
    - {b histograms} — streamed float observations summarised with
      p50/p90/p99 via {!Guillotine_util.Stats};
    - {b trace events} — {!span}s (with duration) and {!instant}s,
      stamped by the registry's clock.

    Clocks: a registry stamps events with whatever [clock] it was
    created with (machine ticks for the hardware layers, discrete-event
    sim-time for the physical plant and the serving simulator).  The
    deployment facade re-points every registry at one unified sim-time
    clock so a containment run exports as a single coherent timeline —
    see [Guillotine_core.Deployment.export_trace].

    Export targets: a {!snapshot} (uniform name→value list, the
    [metrics] accessor every subsystem exposes), a pretty table, and
    Chrome-trace JSON loadable in [chrome://tracing] or Perfetto.

    The event buffer is bounded ([max_events], default 65536); once
    full, new events are counted in {!events_dropped} rather than
    recorded, so telemetry never grows without bound under hostile
    load. *)

module Stats = Guillotine_util.Stats

type t
(** A metrics registry + trace-event buffer for one subsystem. *)

val create : ?clock:(unit -> float) -> ?max_events:int -> name:string -> unit -> t
(** [clock] defaults to a constant 0 (events then order by insertion);
    instrumented subsystems always pass their own. *)

val set_clock : t -> (unit -> float) -> unit
(** Re-point the registry's clock — used by the deployment facade to
    align every subsystem on one sim-time axis.  Timestamps already
    recorded are not rewritten. *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Find-or-create.  Raises [Invalid_argument] if [name] is already
    registered as a different metric kind. *)

val incr : ?by:int -> counter -> unit
(** [by] defaults to 1 and must be non-negative: counters are monotone
    by construction.  Raises [Invalid_argument] on a negative
    increment. *)

val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

(** {2 Histograms} *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

val histogram_summary : histogram -> Stats.summary

(** {2 Trace spans} *)

type span

val span : t -> ?cat:string -> ?args:(string * string) list -> string -> span
(** Open a span at the current clock reading.  A span is recorded in
    the event buffer only when {!finish}ed. *)

val finish : ?args:(string * string) list -> span -> unit
(** Close the span; extra [args] are appended.  Finishing twice is a
    no-op. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span with no category or args; the span
    closes even on exceptions. *)

val instant : t -> ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration event (detector firing, isolation change…). *)

val events_recorded : t -> int
val events_dropped : t -> int

(** {2 Snapshots — the uniform metrics surface} *)

type value =
  | Counter of int
  | Gauge of float
  | Summary of Stats.summary

type snapshot = {
  component : string;
  values : (string * value) list;  (** registration order *)
}

val snapshot : t -> snapshot
(** All registered metrics in registration order, followed by two
    synthetic self-observability gauges: [telemetry.events_dropped]
    (events lost to the buffer bound) and [telemetry.buffer_occupancy]
    (recorded / max_events, in [0,1]).  Both are gauges so
    {!counter_sum} still measures only subsystem activity; watchdog
    rules can target them to alert on telemetry self-saturation. *)

val snapshot_of : component:string -> (string * value) list -> snapshot
(** For subsystems that compute metrics on demand (e.g. per-core
    counts read from the cores at snapshot time). *)

val find : snapshot -> string -> value option

val get_counter : snapshot -> string -> int
(** 0 when absent or not a counter. *)

val counter_sum : snapshot -> int
(** Sum of every counter in the snapshot. *)

val table : snapshot list -> Guillotine_util.Table.t
(** One row per metric: component | metric | value. *)

(** {2 Chrome-trace export} *)

val export_chrome_trace : t list -> string
(** JSON for [chrome://tracing] / Perfetto: one thread per registry,
    all spans/instants merged and sorted so timestamps are
    non-decreasing.  Gauges are emitted as counter ([{"ph":"C"}])
    events — one per recorded sample — so occupancy/goodput render as
    value tracks alongside the spans.  Timestamps are clock seconds
    scaled to microseconds.

    Ordering is a documented total order, not an accident of the sort:
    (timestamp, position of the registry in the argument list, the
    registry's own recording sequence).  Two exports of the same
    registries in the same order are byte-identical — the replay
    contract the fault plane and the incident reporter pin. *)
