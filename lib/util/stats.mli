(** Summary statistics for experiment measurements. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  total : float;
}

val summarize_array : ?len:int -> float array -> summary
(** [summarize_array ?len a] computes all summary fields over the first
    [len] elements of [a] (default: all of them), leaving [a] untouched.
    [len = 0] yields a zeroed summary with [count = 0]; a [len] outside
    [\[0, Array.length a\]] raises [Invalid_argument].

    [total], [mean] and [stddev] are summed in index order, so a caller
    that stores samples in arrival order gets the same bits as summing
    the samples one by one as they arrived; the order statistics come
    from a sorted copy through {!percentile}.  Cost: one [len]-float
    copy and an O(len log len) sort. *)

val summarize : float list -> summary
(** [summarize xs] is [summarize_array (Array.of_list xs)]: the one
    summariser behind both telemetry snapshots and time-series windows. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0,1\]]; [sorted] must be sorted
    ascending and non-empty.

    Linear interpolation at rank [q * (n - 1)] (the "exclusive" /
    numpy-default convention): with [r = q * (n - 1)], the result is
    [sorted.(floor r)] plus [frac r] of the gap to [sorted.(ceil r)].
    Pinned behaviour for tiny samples:
    - [n = 1]: every quantile is the single sample;
    - [n = 2]: [p50] is the midpoint of the two samples, [p0]/[p100]
      the endpoints, and e.g. [p90 = a +. 0.9 *. (b -. a)];
    - [n = 3]: [p50] is the middle sample exactly; quantiles below 0.5
      interpolate within the lower pair, above 0.5 within the upper.

    Both telemetry snapshot summaries and the observability plane's
    windowed aggregates go through this function (via
    {!summarize_array}), so the two surfaces cannot disagree on a
    percentile. *)

val mean : float list -> float
val stddev : float list -> float

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins xs] buckets [xs] into [bins] equal-width buckets
    spanning [min..max]; each cell is [(lo, hi, count)]. *)

type counter
(** Streaming counter: O(1) memory mean/variance via Welford's method. *)

val counter : unit -> counter
val add : counter -> float -> unit
val counter_count : counter -> int
val counter_mean : counter -> float
val counter_stddev : counter -> float
