(* Tests for Guillotine_util: PRNG determinism and distributions, stats,
   heaps, bounded queues, bit strings, tables, JSON string escaping. *)

open Guillotine_util

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let xs = List.init 16 (fun _ -> Prng.int64 a) in
  let ys = List.init 16 (fun _ -> Prng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_copy_replays () =
  let a = Prng.create 7L in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.int64 a) (Prng.int64 b)

let test_prng_split_independent () =
  let parent = Prng.create 9L in
  let child = Prng.split parent in
  let xs = List.init 32 (fun _ -> Prng.int64 parent) in
  let ys = List.init 32 (fun _ -> Prng.int64 child) in
  Alcotest.(check bool) "no overlap" true (xs <> ys)

let test_prng_int_bounds () =
  let p = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let p = Prng.create 4L in
  for _ = 1 to 1000 do
    let v = Prng.float p 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_int_uniformish () =
  let p = Prng.create 5L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int p 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.08 && frac < 0.12))
    counts

let test_prng_exponential_mean () =
  let p = Prng.create 6L in
  let rate = 4.0 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential p rate
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    "mean close to 1/rate" true
    (Float.abs (mean -. (1.0 /. rate)) < 0.01)

let test_prng_gaussian_moments () =
  let p = Prng.create 8L in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Prng.gaussian p ~mean:3.0 ~stddev:2.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  Alcotest.(check bool) "mean ~3" true (Float.abs (m -. 3.0) < 0.05);
  Alcotest.(check bool) "sd ~2" true (Float.abs (sd -. 2.0) < 0.05)

let test_prng_sample_without_replacement () =
  let p = Prng.create 10L in
  let s = Prng.sample_without_replacement p 10 20 in
  Alcotest.(check int) "k elements" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20)) s

let test_prng_shuffle_permutes () =
  let p = Prng.create 11L in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_prng_choose_covers_all () =
  let p = Prng.create 12L in
  let arr = [| "a"; "b"; "c" |] in
  let seen = Hashtbl.create 3 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (Prng.choose p arr) ()
  done;
  Alcotest.(check int) "all elements reachable" 3 (Hashtbl.length seen);
  Alcotest.check_raises "empty array" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose p [||]))

let test_stats_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Stats.p50;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "total" 15.0 s.Stats.total

let test_stats_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "count 0" 0 s.Stats.count

let test_stats_stddev () =
  let sd = Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  (* Sample stddev of this classic set is ~2.138 *)
  Alcotest.(check bool) "sample sd" true (Float.abs (sd -. 2.138) < 0.01)

let test_stats_percentile_interpolates () =
  let arr = [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-9)) "p50 interp" 25.0 (Stats.percentile arr 0.5);
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile arr 0.0);
  Alcotest.(check (float 1e-9)) "p100" 40.0 (Stats.percentile arr 1.0)

let test_stats_percentile_tiny_n () =
  (* The pinned n<=3 behaviour documented in stats.mli: both telemetry
     snapshots and observability window aggregates rely on it. *)
  let one = [| 42.0 |] in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9)) "n=1 constant" 42.0 (Stats.percentile one q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  let two = [| 10.0; 30.0 |] in
  Alcotest.(check (float 1e-9)) "n=2 p50 midpoint" 20.0 (Stats.percentile two 0.5);
  Alcotest.(check (float 1e-9)) "n=2 p0 endpoint" 10.0 (Stats.percentile two 0.0);
  Alcotest.(check (float 1e-9)) "n=2 p100 endpoint" 30.0 (Stats.percentile two 1.0);
  Alcotest.(check (float 1e-9)) "n=2 p90 interp" 28.0 (Stats.percentile two 0.9);
  let three = [| 1.0; 5.0; 11.0 |] in
  Alcotest.(check (float 1e-9)) "n=3 p50 exact middle" 5.0
    (Stats.percentile three 0.5);
  Alcotest.(check (float 1e-9)) "n=3 p25 lower pair" 3.0
    (Stats.percentile three 0.25);
  Alcotest.(check (float 1e-9)) "n=3 p75 upper pair" 8.0
    (Stats.percentile three 0.75);
  Alcotest.(check (float 1e-9)) "n=3 p99 near max" (5.0 +. (0.98 *. 6.0))
    (Stats.percentile three 0.99);
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 0.5))

(* The array summariser must reproduce the list code it replaced bit for
   bit, also when it reads a prefix of a longer buffer: signed zeros,
   repeats and negatives make summation order and sort ties show. *)
let summary_bits (s : Stats.summary) =
  ( s.Stats.count,
    List.map Int64.bits_of_float
      Stats.[ s.mean; s.stddev; s.min; s.p50; s.p90; s.p99; s.max; s.total ] )

let prop_summarize_matches_list_code =
  let sample =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl [ 0.0; -0.0; 1.0; -1.0; 0.1; -2.5; 1e300; -1e-300 ]);
          (2, float_range (-1e3) 1e3);
        ])
  in
  QCheck.Test.make ~count:500 ~name:"summarize = list reference, bit for bit"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 40) (make ~print:(Printf.sprintf "%h") sample))
        (list_of_size Gen.(int_range 0 4) (make ~print:(Printf.sprintf "%h") sample)))
    (fun (xs, tail) ->
      let expect = summary_bits (Timeseries_ref.Stats.summarize xs) in
      summary_bits (Stats.summarize xs) = expect
      && summary_bits
           (Stats.summarize_array ~len:(List.length xs)
              (Array.of_list (xs @ tail)))
         = expect)

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 4 total

let test_stats_counter_matches_batch () =
  let xs = [ 1.5; 2.5; 3.5; 10.0; -4.0 ] in
  let c = Stats.counter () in
  List.iter (Stats.add c) xs;
  Alcotest.(check int) "count" 5 (Stats.counter_count c);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean xs) (Stats.counter_mean c);
  Alcotest.(check (float 1e-6)) "stddev" (Stats.stddev xs) (Stats.counter_stddev c)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some v ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 8; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  (* Equal keys must pop in insertion order. *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let labels = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, l) ->
      labels := l :: !labels;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "ties FIFO" [ "z"; "a"; "b"; "c" ] (List.rev !labels)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops any int list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some v -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let test_bounded_queue_fifo () =
  let q = Bounded_queue.create ~capacity:3 in
  Alcotest.(check bool) "push1" true (Bounded_queue.push q 1);
  Alcotest.(check bool) "push2" true (Bounded_queue.push q 2);
  Alcotest.(check bool) "push3" true (Bounded_queue.push q 3);
  Alcotest.(check bool) "push4 rejected" false (Bounded_queue.push q 4);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check bool) "push after pop" true (Bounded_queue.push q 5);
  Alcotest.(check (list int)) "snapshot" [ 2; 3; 5 ] (Bounded_queue.to_list q)

let prop_bounded_queue_fifo =
  (* Any push/pop script against a bounded queue behaves exactly like a
     plain FIFO list truncated at capacity: accepted pushes come back in
     order, rejections happen iff the model is full, and the length
     never exceeds capacity. *)
  QCheck.Test.make ~name:"bounded queue = capacity-limited FIFO" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (option small_int)))
    (fun (cap, script) ->
      let q = Bounded_queue.create ~capacity:cap in
      let model = ref [] in
      List.for_all
        (fun step ->
          let ok =
            match step with
            | Some x ->
              let accepted = Bounded_queue.push q x in
              let model_full = List.length !model >= cap in
              if accepted then model := !model @ [ x ];
              accepted = not model_full
            | None -> (
              let popped = Bounded_queue.pop q in
              match (!model, popped) with
              | [], None -> true
              | m :: rest, Some v ->
                model := rest;
                v = m
              | _ -> false)
          in
          ok
          && Bounded_queue.length q = List.length !model
          && Bounded_queue.length q <= Bounded_queue.capacity q
          && Bounded_queue.to_list q = !model)
        script)

let prop_heap_pop_ordering =
  QCheck.Test.make ~name:"heap pop never goes backwards" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun xs ->
      let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
      List.iter (Heap.push h) xs;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (k, _) -> (match prev with Some p -> k >= p | None -> true) && drain (Some k)
      in
      drain None)

let prop_prng_copy_replays =
  QCheck.Test.make ~name:"prng copy replays the exact stream" ~count:100
    QCheck.(pair int (int_range 0 64))
    (fun (seed, skip) ->
      let a = Prng.create (Int64.of_int seed) in
      for _ = 1 to skip do
        ignore (Prng.int64 a)
      done;
      let b = Prng.copy a in
      List.init 32 (fun _ -> Prng.int64 a) = List.init 32 (fun _ -> Prng.int64 b))

let prop_prng_split_deterministic =
  QCheck.Test.make ~name:"prng split is a pure function of the parent state"
    ~count:100 QCheck.int (fun seed ->
      let seed = Int64.of_int seed in
      let s1 = Prng.split (Prng.create seed) in
      let s2 = Prng.split (Prng.create seed) in
      let xs = List.init 32 (fun _ -> Prng.int64 s1) in
      let ys = List.init 32 (fun _ -> Prng.int64 s2) in
      let parent = List.init 32 (fun _ -> Prng.int64 (Prng.create seed)) in
      xs = ys && xs <> parent)

let prop_prng_skip_is_n_draws =
  QCheck.Test.make ~name:"prng skip n = n int64 draws" ~count:40
    QCheck.(pair int (int_range 0 (1 lsl 20)))
    (fun (seed, n) ->
      let a = Prng.create (Int64.of_int seed) in
      let b = Prng.copy a in
      for _ = 1 to n do
        ignore (Prng.int64 a)
      done;
      Prng.skip b n;
      List.init 8 (fun _ -> Prng.int64 a) = List.init 8 (fun _ -> Prng.int64 b))

(* [fill_bytes] writes exactly the draws [int64] would make, each
   little-endian in draw order, leaves the stream where they would, and
   boxes none of them: its one allocation, however many draws, is the
   final state stored back (an [int64] box, 3 words). *)
let prop_prng_fill_bytes_is_draws =
  QCheck.Test.make ~name:"prng fill_bytes = int64 draws, unboxed" ~count:40
    QCheck.(pair int64 (int_range 0 64))
    (fun (seed, words) ->
      let a = Prng.create seed in
      let b = Prng.copy a in
      let buf = Bytes.create (8 * words) in
      let before = Gc.minor_words () in
      Prng.fill_bytes a buf;
      let allocated = Gc.minor_words () -. before in
      allocated <= 3.
      && List.init words (fun k -> Bytes.get_int64_le buf (8 * k))
         = List.init words (fun _ -> Prng.int64 b)
      && Prng.int64 a = Prng.int64 b)

let test_prng_fill_bytes_whole_draws () =
  Alcotest.check_raises "7 bytes"
    (Invalid_argument "Prng.fill_bytes: length not a multiple of 8") (fun () ->
      Prng.fill_bytes (Prng.create 1L) (Bytes.create 7))

let test_bits_roundtrip () =
  let s = "Guillotine" in
  Alcotest.(check string) "roundtrip" s (Bits.to_string (Bits.of_string s))

let test_bits_accuracy () =
  let a = [ true; false; true; true ] in
  Alcotest.(check (float 1e-9)) "perfect" 1.0 (Bits.accuracy a a);
  Alcotest.(check (float 1e-9))
    "one wrong" 0.75
    (Bits.accuracy a [ true; false; true; false ]);
  Alcotest.(check (float 1e-9)) "missing tail" 0.5 (Bits.accuracy a [ true; false ])

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"bits roundtrip any string" ~count:200 QCheck.string
    (fun s -> Bits.to_string (Bits.of_string s) = s)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_renders () =
  let t =
    Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("n", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "contains row" true (contains ~needle:"alpha" s)

let test_table_cell_formats () =
  Alcotest.(check string) "integer float" "42" (Table.cell_f 42.0);
  Alcotest.(check string) "fraction" "3.142" (Table.cell_f 3.14159);
  Alcotest.(check string) "int" "7" (Table.cell_i 7);
  Alcotest.(check string) "pct" "42.0%" (Table.cell_pct 0.42)

let test_table_arity_check () =
  let t = Table.create ~title:"x" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "1"; "2" ])

(* Every JSON writer in the tree escapes through [Json.escape], so these
   bytes are what any exported string carries. *)
let test_json_escape () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (String.escaped input) expected (Json.escape input))
    [
      ("\"", {|\"|});
      ("\\", {|\\|});
      ("\n", {|\n|});
      ("\r", {|\r|});
      ("\t", {|\t|});
      ("\x00", {|\u0000|});
      ("\x1f", {|\u001f|});
      ("\x7f", "\x7f");
      ("h\xc3\xa9 \xe2\x82\xac \xf0\x9f\x94\x92", "h\xc3\xa9 \xe2\x82\xac \xf0\x9f\x94\x92");
      ("a\"b\\c\nd", {|a\"b\\c\nd|});
    ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "int uniform-ish" `Slow test_prng_int_uniformish;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "choose covers all" `Quick test_prng_choose_covers_all;
          qc prop_prng_copy_replays;
          qc prop_prng_split_deterministic;
          qc prop_prng_skip_is_n_draws;
          qc prop_prng_fill_bytes_is_draws;
          Alcotest.test_case "fill_bytes whole draws" `Quick
            test_prng_fill_bytes_whole_draws;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile interpolates" `Quick
            test_stats_percentile_interpolates;
          Alcotest.test_case "percentile tiny n pinned" `Quick
            test_stats_percentile_tiny_n;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "streaming counter" `Quick test_stats_counter_matches_batch;
          qc prop_summarize_matches_list_code;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          qc prop_heap_sorts;
          qc prop_heap_pop_ordering;
        ] );
      ( "bounded_queue",
        [
          Alcotest.test_case "fifo with capacity" `Quick test_bounded_queue_fifo;
          qc prop_bounded_queue_fifo;
        ] );
      ( "bits",
        [
          Alcotest.test_case "roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "accuracy" `Quick test_bits_accuracy;
          qc prop_bits_roundtrip;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "cell formats" `Quick test_table_cell_formats;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
        ] );
      ("json", [ Alcotest.test_case "string escaping pinned" `Quick test_json_escape ]);
    ]
