(* Host-speed calibration for the end-to-end times.

   On a shared host the same code runs up to ~1.9x slower while a
   neighbour loads the machine, in phases lasting seconds.  Raw wall
   times then measure the neighbours more than the code.  So the
   benchmark runs a fixed probe — the kernel below, built from the
   stdlib only, so no change to the library can speed it up or slow it
   down — before and after every set-up and unit, and every few tens of
   milliseconds to a second inside units; each stretch of measured
   time is then scaled by the probe's reference time over the probe
   times around it.  A scaled time reads as host seconds on the
   reference host at its undisturbed speed.  Traced runs report raw
   times.

   A probe first empties the minor heap, so its kernels promote nothing
   the program has live and their time does not depend on the program's
   heap.  The probe, that collection included, is left out of measured
   time, and its GC activity out of the workloads' GC counts. *)

(* The kernel has two parts, timed apart.  [mix], boxed int32 mixing
   over a small array, is allocation-heavy, like the boxed SHA-256 and
   the interpreter that dominate the units.  [walk], dependent loads
   around a random cycle through 8 MB outside the heap, larger than a
   core's L2, is bound by cache latency, like the GC's promotion of a
   new rig.  Units are scaled by the mixing alone and set-ups by the
   whole kernel, the walk being about a quarter of it: set-ups are
   mostly allocation and promotion, which slow less with the host than
   the mixing does.  Measured in ten-run sets: scaled by the mixing
   alone, guest-exec's set-up median moved by up to 30% with the host's
   phase.  Scaled by the whole kernel, the units read higher in slow
   phases (correlation +0.8 between probe time and golden-sweep's run_s
   or serve-soak's op_p50_us); scaled by the mixing alone they read
   slightly lower, with smaller spreads. *)
let mix () =
  let a = Array.make 64 0l in
  for r = 1 to 20_000 do
    for i = 1 to 63 do
      a.(i) <-
        Int32.add
          (Int32.logxor (Int32.shift_left a.(i - 1) 5) (Int32.shift_right_logical a.(i) 2))
          (Int32.of_int (r + i))
    done
  done;
  ignore (Sys.opaque_identity a)

let chain_words = 1 lsl 20
let walk_steps = 24_000

let chain =
  let a = Bigarray.Array1.init Bigarray.int Bigarray.c_layout chain_words Fun.id in
  (* Sattolo's shuffle: a single cycle through every word *)
  let st = Random.State.make [| chain_words |] in
  for i = chain_words - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

(* Each walk goes on where the last one stopped, so it keeps leaving
   the cache lines it has touched. *)
let position = ref 0

let walk () =
  let p = ref !position in
  for _ = 1 to walk_steps do
    p := Bigarray.Array1.unsafe_get chain !p
  done;
  position := !p

(* The parts' durations on the reference host (2-core Intel Xeon VM)
   when undisturbed. *)
let reference_mix_s = 0.005
let reference_walk_s = 0.0025

(* GC activity: minor words allocated, minor and major collections. *)
type gc = { words : float; minors : int; majors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { words = s.Gc.minor_words; minors = s.Gc.minor_collections; majors = s.Gc.major_collections }

let gc_sub a b = { words = a.words -. b.words; minors = a.minors - b.minors; majors = a.majors - b.majors }
let gc_add a b = { words = a.words +. b.words; minors = a.minors + b.minors; majors = a.majors + b.majors }

(* One probe's time span, and the seconds one kernel's parts took. *)
type probe = { start : float; stop : float; mix_s : float; walk_s : float }

(* newest first *)
let probes : probe list ref = ref []

(* GC activity of every probe so far. *)
let probe_gc = ref { words = 0.0; minors = 0; majors = 0 }

(* One probe: [kernels] back-to-back runs of the kernel, recorded as
   the time one of them took, so a longer probe averages the host's
   speed over more time. *)
let tick ?(kernels = 1) () =
  Span.with_span "pace.probe" (fun () ->
      let g0 = gc_now () in
      let start = Span.now () in
      Gc.minor ();
      let mix_s = ref 0.0 and walk_s = ref 0.0 in
      for _ = 1 to kernels do
        let t0 = Span.now () in
        mix ();
        let t1 = Span.now () in
        walk ();
        mix_s := !mix_s +. (t1 -. t0);
        walk_s := !walk_s +. (Span.now () -. t1)
      done;
      let stop = Span.now () in
      probe_gc := gc_add !probe_gc (gc_sub (gc_now ()) g0);
      let k = float_of_int kernels in
      probes := { start; stop; mix_s = !mix_s /. k; walk_s = !walk_s /. k } :: !probes)

(* A mark to measure the program's GC activity from, probes left out. *)
let gc_mark () = (gc_now (), !probe_gc)

let gc_since (g0, p0) = gc_sub (gc_sub (gc_now ()) g0) (gc_sub !probe_gc p0)

(* Probes count as around a stretch of measured time when they lie
   within the stretch's own length of it, and at least [window]
   seconds: enough probes to average, close enough to follow the
   host's changes of speed. *)
let window = 0.1

(* Host seconds in [t0, t1] outside the probes, each stretch between
   probes scaled by the reference time over the mean time of the
   probes around it, or else of the nearest one before and the nearest
   one after.  The time is the mixing's, or with [~setup:true] the
   whole kernel's. *)
let scaled ?(setup = false) t0 t1 =
  let speed p = if setup then p.mix_s +. p.walk_s else p.mix_s in
  let reference = if setup then reference_mix_s +. reference_walk_s else reference_mix_s in
  let ps = List.rev !probes in
  let stretch a b =
    let reach = Float.max window (b -. a) in
    let near = ref [] and before = ref None and after = ref None in
    List.iter
      (fun p ->
        if p.stop <= a then before := Some (speed p);
        if !after = None && p.start >= b then after := Some (speed p);
        if p.stop >= a -. reach && p.start <= b +. reach then near := speed p :: !near)
      ps;
    let around = if !near <> [] then !near else List.filter_map Fun.id [ !before; !after ] in
    match around with
    | [] -> b -. a
    | _ ->
      let mean = List.fold_left ( +. ) 0.0 around /. float_of_int (List.length around) in
      (b -. a) *. reference /. mean
  in
  let inside = List.filter (fun p -> p.start >= t0 && p.stop <= t1) ps in
  let rec go from = function
    | [] -> stretch from t1
    | p :: rest -> stretch from p.start +. go p.stop rest
  in
  go t0 inside
