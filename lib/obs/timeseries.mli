(** Time-series store: periodic samples of telemetry metrics bucketed
    into fixed-width windows on the sim clock.

    The monitor samples every attached registry on a fixed cadence and
    feeds each metric here under the key ["component.metric"].  Samples
    land in the window [floor (at / width)]; when a sample arrives for a
    later window the open one is closed.  A closed window keeps its raw
    samples, and {!points} summarises it into a {!point} of windowed
    aggregates when it is read.

    Aggregates are computed with
    {!Guillotine_util.Stats.summarize_array} — the summariser behind
    telemetry snapshot summaries — so a windowed p99 and a snapshot p99
    over the same samples can never disagree.

    Retention costs constant time per closed window: each series keeps
    its closed windows in a ring of at most [max_windows] and its open
    window's samples in a reused float buffer, so a sample costs the
    same one hour or one week into a run.  A close copies the window's
    samples and the previous window's last value into one float array
    and sorts nothing; a read of {!points} summarises every retained
    window of the series.

    Counter semantics: [delta] is the last value of the window minus
    the last value of the previous window (or minus the first sample of
    the series for the very first window), and [rate] is [delta /
    width].  For a monotone counter both are always non-negative.
    Gauges get the same treatment, where [delta] reads as net change
    over the window. *)

type point = {
  window_start : float;
  window_end : float;
  samples : int;        (** raw samples that landed in the window *)
  last : float;         (** final sample of the window *)
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  delta : float;        (** [last] minus the previous window's [last] *)
  rate : float;         (** [delta /. width] *)
}

type t

val create : ?max_windows:int -> unit -> t
(** Windows are 1.0 sim-seconds wide; [max_windows] bounds retained
    closed windows per series (default 512, oldest dropped first). *)

type series
(** A handle on one series.  Series are never removed, so a handle
    stays valid for the store's lifetime. *)

val record : t -> name:string -> at:float -> float -> unit
(** Feed one sample: {!find}, creating the series at its first sample,
    then {!push}.  Samples must arrive in non-decreasing [at] order per
    series (the monitor's sampling loop guarantees this). *)

val find : t -> string -> series option
(** [None] until the series' first sample. *)

val push : t -> series -> at:float -> float -> unit
(** {!record} without the lookup. *)

val names : t -> string list
(** Series keys in first-seen order. *)

val count : t -> int
(** Number of tracked series — O(1), unlike [List.length (names t)]. *)

val matching : t -> string -> string list
(** [matching t pattern] returns series whose key equals [pattern], or
    — when [pattern] starts with ["*."] — whose key ends with the
    suffix after the [*].  Lets one watchdog rule cover e.g. every
    registry's [telemetry.events_dropped]. *)

val points : t -> string -> point list
(** Closed windows, chronological, each summarised on this call.  Empty
    for unknown series. *)

(** Scalar view of the most recent window — the open one, which always
    holds at least the series' latest sample — what watchdog rules
    evaluate.  [Rate] and [Delta] on a still-open window use the full
    window width as denominator, which under-reports rather than
    spikes. *)
type signal = Last | Mean | Min | Max | P50 | P90 | P99 | Rate | Delta | Count

val read : series -> signal -> float
(** The signal of the series' open window. *)

val signal_value : t -> string -> signal -> float option
(** {!read} on the named series; [None] when it has no samples yet. *)

val stale_for : series -> now:float -> float
(** Seconds since the series' raw value last {e changed} (not merely
    was sampled). *)

val staleness : t -> name:string -> now:float -> float option
(** {!stale_for} on the named series.  [None] for unknown series —
    absence-of-heartbeat rules stay silent until the metric exists at
    all. *)

val last_sample_at : t -> string -> float option
