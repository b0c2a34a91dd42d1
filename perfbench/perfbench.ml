(* The repository benchmark: one workload per invocation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload's unit (set-up, then the timed phase)
   round(S / unit_s) times, at least twice, and prints the end-to-end
   metrics.
   --trace 1 runs the unit untraced to warm up, then untraced, traced
   and untraced again, then the rest of the layer ladder (the other
   workloads' units, the fleet on two domains and on one, and the
   crypto probes, all traced), so every per-layer metric is measured in
   every traced run; it prints the per-layer metrics and writes the
   spans to perfbench/out/ as Chrome-trace JSON with a ranked self-time
   table per workload.  The last line of standard output is the JSON
   result.  README.md explains the workloads and metrics. *)

module W = Workloads
module Core = Guillotine_microarch.Core
module Stats = Guillotine_util.Stats

let default_seed = 1
let min_units = 2
let min_setups = 5
let out_dir = "perfbench/out"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* Every number must measure the shipped default path: refuse to run
   under an environment override of the execution mode or domain
   count. *)
let guard_environment () =
  let overrides =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           let key = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
           if key = "DOMAINS" || String.starts_with ~prefix:"GUILLOTINE_" key then Some key else None)
  in
  if overrides <> [] then fail "refusing to run with %s set" (String.concat ", " overrides);
  if not (Core.jit_enabled () && Core.predecode_enabled () && not (Core.profile_default ())) then
    fail "refusing to run outside the default execution mode"

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted -> Stats.percentile (Array.of_list sorted) 0.5

let percentile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  Stats.percentile a q

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let print_fingerprint name fp =
  List.iter (fun (k, v) -> Printf.printf "fingerprint %s %s %s\n" name k v) fp

let pins_for name ~seed =
  if seed = default_seed then List.assoc_opt name Pins.fingerprints else None

let matches_pin name ~seed fp =
  match pins_for name ~seed with
  | Some pin when pin <> fp ->
    prerr_endline ("perfbench: " ^ name ^ ": fingerprint differs from the pin");
    false
  | _ -> true

(* Fingerprints must agree between units of one run and, at the default
   seed, with the pin.  Returns whether they do. *)
let consistent (w : W.t) ~seed outcomes =
  let fps = List.map (fun (o : W.outcome) -> o.W.fingerprint) outcomes in
  let same = List.for_all (( = ) (List.hd fps)) fps in
  if not same then prerr_endline ("perfbench: " ^ w.W.name ^ ": units of one run disagree");
  same && matches_pin w.W.name ~seed (List.hd fps)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number value) unit_)
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct attempted
    failed (String.concat ", " body);
  print_newline ()

let sum_outcomes outcomes =
  List.fold_left (fun (a, f) (o : W.outcome) -> (a + o.W.attempted, f + o.W.failed)) (0, 0) outcomes

(* ------------------------------ untraced ------------------------------ *)

let untraced (w : W.t) ~seed ~seconds =
  let setup = w.W.prepare ~seed ~pins:(pins_for w.W.name ~seed) in
  let setups = ref [] in
  (* Each set-up starts from a collected heap (untimed), so it does not
     also pay for collecting the rig before it: that share depends on
     where the major GC happens to be, and it drifted with the host
     more than the probes follow.  Probes bracket every set-up and
     every unit (Pace): the one after each collection also closes the
     unit before it. *)
  let timed_setup () =
    Gc.full_major ();
    Pace.tick ~kernels:4 ();
    let t0 = Span.now () in
    let run = setup () in
    setups := (t0, Span.now ()) :: !setups;
    Pace.tick ~kernels:4 ();
    run
  in
  let units = max min_units (Float.to_int (Float.round (seconds /. w.W.unit_s))) in
  let outcomes = List.init units (fun _ -> (timed_setup ()) ()) in
  Pace.tick ~kernels:4 ();
  while List.length !setups < min_setups do
    let (_unused : unit -> W.outcome) = timed_setup () in
    ()
  done;
  let scaled (t0, t1) = Pace.scaled t0 t1 in
  let raw (t0, t1) = t1 -. t0 in
  let mix_s = List.map (fun (p : Pace.probe) -> p.Pace.mix_s) !Pace.probes in
  let walk_s = List.map (fun (p : Pace.probe) -> p.Pace.walk_s) !Pace.probes in
  let ops = Array.concat (List.map (fun (o : W.outcome) -> o.W.ops) outcomes) in
  let runs = List.map (fun (o : W.outcome) -> o.W.span_of_run) outcomes in
  let attempted, failed = sum_outcomes outcomes in
  let correct = consistent w ~seed outcomes && failed = 0 in
  print_fingerprint w.W.name (List.hd outcomes).W.fingerprint;
  Printf.printf "samples setup_s=%d run_s=%d op=%d\n" (List.length !setups) (List.length runs)
    (Array.length ops);
  Printf.printf
    "raw wall seconds: setup median %.6f, run median %.6f; probe mix median %.6f (reference %.6f), walk median %.6f (reference %.6f)\n"
    (median (List.map raw !setups)) (median (List.map raw runs))
    (median mix_s) Pace.reference_mix_s (median walk_s) Pace.reference_walk_s;
  let ops_us = Array.map (fun op -> scaled op *. 1e6) ops in
  print_result ~correct ~attempted ~failed
    [
      ("setup_s", median (List.map (fun (t0, t1) -> Pace.scaled ~setup:true t0 t1) !setups), "s");
      ("run_s", median (List.map scaled runs), "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("op_p50_us", percentile ops_us 0.5, "us");
      ("op_p95_us", percentile ops_us 0.95, "us");
    ]

(* ------------------------------- traced ------------------------------- *)

(* Set-up and one unit with spans on, under the workload's own track. *)
let traced_unit (w : W.t) ~seed =
  Span.track := w.W.name;
  let run =
    Span.with_span (w.W.name ^ ".setup") (fun () -> w.W.prepare ~seed ~pins:(pins_for w.W.name ~seed) ())
  in
  run ()

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let table_rows b rows ~run_s =
  List.iter
    (fun (name, n, tot, self_s, words) ->
      Printf.bprintf b "  %-40s %8d %12.6f %12.6f %7.2f%% %10.3f\n" name n tot self_s
        (100.0 *. self_s /. run_s) (words /. 1e6))
    rows

(* A track's spans ranked by self time: first the timed phase, whose
   self times add up to the traced run_s (the root's own self time is
   the benchmark's loop overhead), then the spans outside it. *)
let selftime_table ~track ~root =
  let b = Buffer.create 2048 in
  let header title =
    Printf.bprintf b "%s\n  %-40s %8s %12s %12s %8s %10s\n" title "span" "calls" "total_s" "self_s"
      "share" "minor_Mw"
  in
  let inside, run_s =
    match root with
    | Some root ->
      let inside = Span.subtree root in
      let run_s = Span.duration root in
      header (Printf.sprintf "self time, %s: timed phase, traced run_s %.6f s" track run_s);
      table_rows b (Span.ranked inside) ~run_s;
      Printf.bprintf b "  self times sum to %.6f s; benchmark loop overhead %.6f s (%.3f%%)\n"
        (Span.total Span.self inside) (Span.self root) (100.0 *. Span.self root /. run_s);
      (inside, run_s)
    | None -> ([], 0.0)
  in
  let inside_ids = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace inside_ids s.Span.id ()) inside;
  let outside =
    List.filter (fun s -> s.Span.track = track && not (Hashtbl.mem inside_ids s.Span.id)) (Span.all ())
  in
  let total = Span.total Span.self outside in
  header (Printf.sprintf "self time, %s: outside the timed phase, %.6f s" track total);
  table_rows b (Span.ranked outside) ~run_s:(if run_s > 0.0 then run_s else total);
  Buffer.contents b

let traced (w : W.t) ~seed =
  let untraced_unit () = w.W.prepare ~seed ~pins:(pins_for w.W.name ~seed) () () in
  (* After a warm-up unit, the traced unit runs between two untraced
     ones, so drift falls on both sides of the tracing-overhead ratio. *)
  let warm = untraced_unit () in
  let before = untraced_unit () in
  Span.enabled := true;
  let mine = traced_unit w ~seed in
  Span.enabled := false;
  let after = untraced_unit () in
  Span.enabled := true;
  let others =
    List.filter_map
      (fun (o : W.t) -> if o.W.name = w.W.name then None else Some (o, traced_unit o ~seed))
      W.all
  in
  let units = (w, mine) :: others in
  let outcome name = List.assoc name (List.map (fun ((o : W.t), u) -> (o.W.name, u)) units) in
  let fleet_fp, fleet_tally = W.fleet_passes ~seed in
  W.crypto_probes ~seed;
  Span.enabled := false;
  let correct =
    List.for_all (fun ((o : W.t), u) -> consistent o ~seed [ u ]) units
    && consistent w ~seed [ warm; before; mine; after ]
    && matches_pin "fleet" ~seed fleet_fp
    && fleet_tally.W.failed = 0
  in
  let attempted, failed = sum_outcomes (warm :: before :: after :: List.map snd units) in
  let attempted = attempted + fleet_tally.W.attempted and failed = failed + fleet_tally.W.failed in
  (* Output: spans as Chrome trace, self-time tables per track. *)
  mkdir_p out_dir;
  let stem = Printf.sprintf "%s/%s-seed%d" out_dir w.W.name seed in
  write_file (stem ^ ".trace.json") (Span.chrome_trace ());
  let root_of name = match Span.named name with [ s ] -> s | _ -> failwith ("one root span expected: " ^ name) in
  let tables =
    List.map (fun ((o : W.t), _) -> selftime_table ~track:o.W.name ~root:(Some (root_of o.W.name))) units
    @ [ selftime_table ~track:"fleet" ~root:None; selftime_table ~track:"ladder" ~root:None ]
  in
  write_file (stem ^ ".selftime.txt") (String.concat "\n" tables);
  List.iter print_string tables;
  Printf.printf "wrote %s.trace.json and %s.selftime.txt\n" stem stem;
  List.iter (fun ((o : W.t), (u : W.outcome)) -> print_fingerprint o.W.name u.W.fingerprint) units;
  print_fingerprint "fleet" fleet_fp;
  (* Per-layer metrics. *)
  let spans = Span.named in
  let total name = Span.total Span.duration (spans name) in
  let mean name = let s = spans name in total name /. float_of_int (max 1 (List.length s)) in
  let words name = Span.total (fun s -> s.Span.minor_words) (spans name) in
  let mean_words name = words name /. float_of_int (max 1 (List.length (spans name))) in
  let count workload key = List.assoc key (outcome workload).W.counts in
  (* The overhead ratio compares speed-scaled times (Pace): the units'
     own probes bracket their stretches here too. *)
  let scaled (o : W.outcome) = Pace.scaled (fst o.W.span_of_run) (snd o.W.span_of_run) in
  let root = root_of w.W.name in
  let settle = root_of "sim.settle" in
  let samples = count "serve-soak" "obs.samples_taken" in
  let attest = Array.of_list (List.map Span.duration (spans "net.attest")) in
  let faults =
    List.map
      (fun name -> (Printf.sprintf "faults.%s_s" name, total ("faults." ^ name), "s"))
      W.Scenarios.names
  in
  let pass_2dom = total "fleet.pass" in
  let pass_1dom = total "fleet.pass_1dom" in
  print_result ~correct ~attempted ~failed
    (faults
    @ [
        ("core.deployment_create_s", mean "core.deployment_create", "s");
        ("core.deployment_create_mwords", mean_words "core.deployment_create" /. 1e6, "Mwords");
        ("core.load_model_ms", mean "core.load_model" *. 1e3, "ms");
        ("crypto.keygen_h8_s", mean "crypto.keygen_h8", "s");
        ("crypto.keygen_h6_s", mean "crypto.keygen_h6", "s");
        ("crypto.keygen_h5_s", mean "crypto.keygen_h5", "s");
        ("crypto.sha256_32B_ns", total "crypto.sha256_32B" /. float_of_int W.sha256_messages *. 1e9, "ns");
        ("crypto.sha256_words_per_digest", words "crypto.sha256_32B" /. float_of_int W.sha256_messages, "words");
        ("net.quote_us", mean "net.quote" *. 1e6, "us");
        ("net.verify_quote_us", mean "net.verify_quote" *. 1e6, "us");
        ("net.attest_p50_us", percentile attest 0.5 *. 1e6, "us");
        ("net.attest_p95_us", percentile attest 0.95 *. 1e6, "us");
        ("hv.serve_us", mean "hv.serve" *. 1e6, "us");
        ("hv.serve_words_per_req", mean_words "hv.serve", "words");
        ("sim.settle_self_s", Span.self settle, "s");
        ("obs.samples_taken", samples, "count");
        ("sim.settle_self_us_per_sample", Span.self settle /. samples *. 1e6, "us");
        ("vet.corpus_ms", total "vet.corpus" *. 1e3, "ms");
        ("vet.coadmit_ms", total "vet.coadmit" *. 1e3, "ms");
        ("vet.install_us_per_word", total "vet.install" /. count "guest-exec" "vet.installed_words" *. 1e6, "us");
        ("microarch.compute_ips", count "guest-exec" "microarch.compute_instr" /. total "microarch.compute", "1/s");
        ("microarch.patch_ips", count "guest-exec" "microarch.patch_instr" /. total "microarch.patch", "1/s");
        ("microarch.words_per_instr", words "microarch.compute" /. count "guest-exec" "microarch.compute_instr", "words");
        ("microarch.jit_invalidations", count "guest-exec" "microarch.jit_invalidations", "count");
        ("memory.prime_probe_cycles_per_s", count "guest-exec" "memory.prime_probe_cycles" /. total "memory.prime_probe", "1/s");
        ("fleet.pass_2dom_s", pass_2dom, "s");
        ("fleet.pass_1dom_s", pass_1dom, "s");
        ("fleet.domain_speedup", pass_1dom /. pass_2dom, "x");
        ("gc.minor_mwords", mine.W.gc.Pace.words /. 1e6, "Mwords");
        ("gc.minor_collections", float_of_int mine.W.gc.Pace.minors, "count");
        ("gc.major_collections", float_of_int mine.W.gc.Pace.majors, "count");
        ("trace.run_s", W.run_s mine, "s");
        ("trace.overhead_pct", (scaled mine /. ((scaled before +. scaled after) /. 2.0) -. 1.0) *. 100.0, "%");
        ("trace.loop_overhead_pct", Span.self root /. Span.duration root *. 100.0, "%");
      ])

(* -------------------------------- main -------------------------------- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  golden-sweep | serve-soak | guest-exec");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1, the pinned one)");
      ("--seconds", Arg.Set_float seconds, "S  how long an untraced run measures (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer ladder");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  guard_environment ();
  let w =
    match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" w.W.name !seed !seconds !trace;
  Printf.printf "mode jit=%b predecode=%b profile_default=%b\n%!" (Core.jit_enabled ())
    (Core.predecode_enabled ()) (Core.profile_default ());
  match !trace with
  | 0 -> untraced w ~seed:!seed ~seconds:!seconds
  | 1 -> traced w ~seed:!seed
  | n -> fail "--trace must be 0 or 1, not %d" n
