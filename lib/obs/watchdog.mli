(** Watchdog engine: declarative SLO rules evaluated against a
    {!Timeseries} store, emitting typed alerts.

    Each rule watches one metric key (or a ["*.suffix"] family),
    reduces the freshest window to a scalar via a {!Timeseries.signal},
    and compares it against a predicate.  Rules carry:

    - a {b for-duration} clause: the breach must hold continuously for
      [for_duration] sim-seconds before the alert is raised (0 raises
      on the first breaching evaluation);
    - {b hysteresis}: once firing, the alert only starts clearing when
      the value retreats past the threshold by [clear_margin], and must
      stay there for [clear_after] seconds.  A value oscillating inside
      the band ±[clear_margin] around the threshold can therefore never
      raise a second alert — the original just stays up;
    - a {b warmup}: evaluations before [warmup] sim-seconds are
      ignored, so start-of-run transients (empty goodput, cold queues)
      cannot page.

    The engine is pure state-machine logic: {!evaluate} is called by
    the monitor's sampling loop and never touches the sim engine, so
    adding a watchdog cannot perturb the system under observation. *)

type severity = Info | Warning | Critical

val severity_string : severity -> string

type predicate =
  | Above of float  (** breach when value > threshold *)
  | Below of float  (** breach when value < threshold *)
  | Stale of float
      (** absence-of-heartbeat: breach when the metric's raw value has
          not changed for more than this many seconds.  Evaluated with
          {!Timeseries.staleness}; a series that never appeared stays
          healthy. *)

type rule = {
  rule_name : string;
  metric : string;        (** series key, or ["*.suffix"] family *)
  signal : Timeseries.signal;
  predicate : predicate;
  for_duration : float;
  clear_margin : float;
  clear_after : float;
  warmup : float;
  severity : severity;
  about : string;         (** human description for reports *)
}

val rule :
  ?signal:Timeseries.signal ->
  ?for_duration:float ->
  ?clear_margin:float ->
  ?clear_after:float ->
  ?warmup:float ->
  ?severity:severity ->
  ?about:string ->
  name:string ->
  metric:string ->
  predicate ->
  rule
(** Defaults: signal [Last], no for-duration, no margin, no clear
    delay, no warmup, severity [Warning]. *)

type alert = {
  rule : rule;
  raised_at : float;
  value : float;                    (** observed value at raise time *)
  mutable cleared_at : float option;
}

type t

val create : unit -> t
val add_rule : t -> rule -> unit

val evaluate : t -> now:float -> Timeseries.t -> alert list * alert list
(** One evaluation tick.  Returns (newly raised, newly cleared).
    Family rules reduce over every matching series: [Above] takes the
    max, [Below] the min, [Stale] the largest staleness.  Each rule
    keeps the series it matched, and matches again only when the store
    or its series count changes. *)

val alerts : t -> alert list
(** Every alert ever raised, chronological. *)
