(* The bench harness's bookkeeping, without running a workload: the
   committed BENCH.json must track the registry, the JSON emitter and
   parser must agree, and [check] must gate exactly the rows a run was
   asked for.  The timed workloads themselves run in CI's bench step. *)

module Perf = Guillotine_bench_perf.Perf

(* dune runtest runs this from _build/default/test; the tests stanza
   declares the file as a dependency. *)
let committed =
  lazy (Perf.parse_json (In_channel.with_open_text "../BENCH.json" In_channel.input_all))

let row workload value =
  { Perf.workload; metric = "instr_per_sec"; value; detail = "d"; failures = [] }

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A new workload without a committed row (or a committed row for a
   deleted workload) fails here rather than riding along unchecked. *)
let test_committed_covers_registry () =
  Alcotest.(check (list string))
    "BENCH.json rows name the registry, in order" Perf.workload_names
    (List.map fst (Lazy.force committed))

let test_json_round_trip () =
  let rows = List.map (fun (w, v) -> row w v) (Lazy.force committed) in
  Alcotest.(check (list (pair string (float 0.0))))
    "parse (emit rows) gives back every workload and value"
    (Lazy.force committed)
    (Perf.parse_json (Perf.json_of_rows rows))

let floor_of v = v *. (1.0 -. Perf.tolerance)

let test_check_at_floor () =
  let committed = [ ("fetch-loop", 3.8e7) ] in
  Alcotest.(check (list string)) "at the floor: ok" []
    (Perf.check ~requested:[ "fetch-loop" ] ~committed
       [ row "fetch-loop" (floor_of 3.8e7) ])

let test_check_below_floor () =
  let committed = [ ("fetch-loop", 3.8e7) ] in
  match
    Perf.check ~requested:[ "fetch-loop" ] ~committed
      [ row "fetch-loop" (Float.pred (floor_of 3.8e7)) ]
  with
  | [ failure ] ->
    Alcotest.(check bool) "names the workload" true
      (contains ~needle:"fetch-loop" failure)
  | failures ->
    Alcotest.failf "expected one failure, got %d" (List.length failures)

let test_check_skips_unrequested () =
  let committed = Lazy.force committed in
  Alcotest.(check (list string)) "other committed rows ignored" []
    (Perf.check ~requested:[ "fetch-loop" ] ~committed
       [ row "fetch-loop" (List.assoc "fetch-loop" committed) ])

let test_check_missing_row () =
  let committed = Lazy.force committed in
  match
    Perf.check ~requested:[ "fetch-loop"; "f-storm" ] ~committed
      [ row "fetch-loop" (List.assoc "fetch-loop" committed) ]
  with
  | [ failure ] ->
    Alcotest.(check bool) "names the missing workload" true
      (contains ~needle:"f-storm" failure)
  | failures ->
    Alcotest.failf "expected one failure, got %d" (List.length failures)

let test_check_unregistered_row () =
  let rows = List.map (fun (w, v) -> row w v) (Lazy.force committed) in
  let committed = ("retired-workload", 1.0) :: Lazy.force committed in
  match Perf.check ~requested:Perf.workload_names ~committed rows with
  | [ failure ] ->
    Alcotest.(check bool) "names the stale row" true
      (contains ~needle:"retired-workload" failure)
  | failures ->
    Alcotest.failf "expected one failure, got %d" (List.length failures)

let () =
  Alcotest.run "bench"
    [
      ( "registry",
        [
          Alcotest.test_case "BENCH.json covers the registry" `Quick
            test_committed_covers_registry;
        ] );
      ("json", [ Alcotest.test_case "emit/parse round trip" `Quick test_json_round_trip ]);
      ( "check",
        [
          Alcotest.test_case "passes at the floor" `Quick test_check_at_floor;
          Alcotest.test_case "fails below the floor" `Quick test_check_below_floor;
          Alcotest.test_case "skips unrequested rows" `Quick
            test_check_skips_unrequested;
          Alcotest.test_case "fails on a missing row" `Quick test_check_missing_row;
          Alcotest.test_case "fails on an unregistered row" `Quick
            test_check_unregistered_row;
        ] );
    ]
