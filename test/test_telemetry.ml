(* Tests for the unified telemetry layer: counter monotonicity,
   histogram quantile ordering, span/instant recording with a bounded
   event buffer, the uniform snapshot surface, and well-formedness of
   the Chrome-trace export (parsed with a small local JSON reader — the
   repo deliberately has no JSON dependency). *)

module Telemetry = Guillotine_telemetry.Telemetry

(* ------------------------- mini JSON reader ------------------------ *)
(* Just enough JSON to validate the trace export: objects, arrays,
   strings with escapes, numbers, true/false/null. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?'
          | Some c -> Buffer.add_char buf c; advance ()
          | None -> fail "dangling escape");
          go ()
        | Some c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      float_of_string (String.sub s start (!pos - start))
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
      else fail ("expected " ^ word)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (elems [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> fail "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

(* ---------------------------- counters ----------------------------- *)

let test_counter_basics () =
  let reg = Telemetry.create ~name:"t" () in
  let c = Telemetry.counter reg "reqs" in
  Telemetry.incr c;
  Telemetry.incr ~by:4 c;
  Alcotest.(check int) "value" 5 (Telemetry.counter_value c);
  (* find-or-create returns the same counter *)
  Telemetry.incr (Telemetry.counter reg "reqs");
  Alcotest.(check int) "shared" 6 (Telemetry.counter_value c);
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Telemetry.incr reqs: negative increment") (fun () ->
      Telemetry.incr ~by:(-1) c);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Telemetry: \"reqs\" already registered as another metric kind")
    (fun () -> ignore (Telemetry.gauge reg "reqs"))

let prop_counter_is_sum_of_increments =
  QCheck.Test.make ~name:"counter equals sum of non-negative increments" ~count:200
    QCheck.(list small_nat)
    (fun incs ->
      let reg = Telemetry.create ~name:"t" () in
      let c = Telemetry.counter reg "c" in
      List.iter (fun by -> Telemetry.incr ~by c) incs;
      Telemetry.counter_value c = List.fold_left ( + ) 0 incs)

let prop_counter_monotone =
  QCheck.Test.make ~name:"counter value never decreases" ~count:200
    QCheck.(list small_nat)
    (fun incs ->
      let reg = Telemetry.create ~name:"t" () in
      let c = Telemetry.counter reg "c" in
      List.for_all
        (fun by ->
          let before = Telemetry.counter_value c in
          Telemetry.incr ~by c;
          Telemetry.counter_value c >= before)
        incs)

(* --------------------------- histograms ---------------------------- *)

let prop_histogram_quantiles_ordered =
  QCheck.Test.make ~name:"histogram quantiles are order-consistent" ~count:200
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let reg = Telemetry.create ~name:"t" () in
      let h = Telemetry.histogram reg "lat" in
      List.iter (Telemetry.observe h) xs;
      let s = Telemetry.histogram_summary h in
      s.Telemetry.Stats.count = List.length xs
      && s.Telemetry.Stats.min <= s.Telemetry.Stats.p50
      && s.Telemetry.Stats.p50 <= s.Telemetry.Stats.p90
      && s.Telemetry.Stats.p90 <= s.Telemetry.Stats.p99
      && s.Telemetry.Stats.p99 <= s.Telemetry.Stats.max)

(* ---------------------- spans and the buffer ----------------------- *)

let test_span_recording () =
  let t = ref 0.0 in
  let reg = Telemetry.create ~clock:(fun () -> !t) ~name:"t" () in
  let sp = Telemetry.span reg ~cat:"io" "mediate" in
  Alcotest.(check int) "open span not yet recorded" 0 (Telemetry.events_recorded reg);
  t := 2.5;
  Telemetry.finish sp;
  Telemetry.finish sp;
  (* double finish is a no-op *)
  Telemetry.instant reg ~cat:"alarm" "fired";
  Alcotest.(check int) "span + instant" 2 (Telemetry.events_recorded reg);
  Alcotest.(check int) "nothing dropped" 0 (Telemetry.events_dropped reg)

let test_event_buffer_bounded () =
  let reg = Telemetry.create ~max_events:8 ~name:"t" () in
  for i = 1 to 20 do
    Telemetry.instant reg (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "capped" 8 (Telemetry.events_recorded reg);
  Alcotest.(check int) "overflow counted" 12 (Telemetry.events_dropped reg)

let test_with_span_closes_on_exception () =
  let reg = Telemetry.create ~name:"t" () in
  (try Telemetry.with_span reg "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "recorded despite raise" 1 (Telemetry.events_recorded reg)

(* ---------------------------- snapshots ---------------------------- *)

let test_snapshot_surface () =
  let reg = Telemetry.create ~name:"svc" () in
  Telemetry.incr ~by:3 (Telemetry.counter reg "served");
  Telemetry.set (Telemetry.gauge reg "depth") 1.5;
  Telemetry.observe (Telemetry.histogram reg "lat") 0.25;
  let snap = Telemetry.snapshot reg in
  Alcotest.(check string) "component" "svc" snap.Telemetry.component;
  Alcotest.(check int) "get_counter" 3 (Telemetry.get_counter snap "served");
  Alcotest.(check int) "absent counter is 0" 0 (Telemetry.get_counter snap "nope");
  Alcotest.(check int) "counter_sum" 3 (Telemetry.counter_sum snap);
  (match Telemetry.find snap "depth" with
  | Some (Telemetry.Gauge g) -> Alcotest.(check (float 1e-9)) "gauge" 1.5 g
  | _ -> Alcotest.fail "expected gauge");
  match Telemetry.find snap "lat" with
  | Some (Telemetry.Summary s) -> Alcotest.(check int) "hist count" 1 s.Telemetry.Stats.count
  | _ -> Alcotest.fail "expected summary"

(* ------------------------ chrome-trace export ---------------------- *)

let build_traced_registries () =
  let t = ref 0.0 in
  let clock () = !t in
  let a = Telemetry.create ~clock ~name:"hv" () in
  let b = Telemetry.create ~clock ~name:"console" () in
  let sp = Telemetry.span a ~cat:"io" ~args:[ ("port", "0") ] "port.mediate" in
  t := 0.5;
  Telemetry.instant b ~cat:"isolation" "isolation.change";
  t := 1.25;
  Telemetry.finish sp;
  t := 2.0;
  Telemetry.with_span b "console.transition" (fun () -> t := 3.5);
  (a, b)

let test_chrome_trace_golden () =
  let a, b = build_traced_registries () in
  let json = Telemetry.export_chrome_trace [ a; b ] in
  let doc = try Json.parse json with Json.Parse_error e -> Alcotest.fail e in
  (match Json.member "displayTimeUnit" doc with
  | Some (Json.Str "ms") -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit");
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "missing traceEvents"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (* Every event carries the required fields; ph is a known type. *)
  let field name ev =
    match Json.member name ev with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "event missing %S" name)
  in
  List.iter
    (fun ev ->
      (match field "ph" ev with
      | Json.Str ("M" | "X" | "i" | "C") -> ()
      | Json.Str ph -> Alcotest.fail ("unexpected phase " ^ ph)
      | _ -> Alcotest.fail "ph not a string");
      (match field "ts" ev with Json.Num _ -> () | _ -> Alcotest.fail "ts not numeric");
      ignore (field "pid" ev);
      ignore (field "name" ev))
    events;
  (* Timestamps are non-decreasing across the merged timeline. *)
  let ts =
    List.filter_map
      (fun ev ->
        match (Json.member "ph" ev, Json.member "ts" ev) with
        | Some (Json.Str "M"), _ -> None
        | _, Some (Json.Num t) -> Some t
        | _ -> None)
      events
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps sorted" true (non_decreasing ts);
  (* Complete events have a non-negative duration; the finished span's
     duration matches the clock delta (1.25 s = 1_250_000 us). *)
  let durs =
    List.filter_map
      (fun ev ->
        match (Json.member "ph" ev, Json.member "dur" ev) with
        | Some (Json.Str "X"), Some (Json.Num d) -> Some d
        | _ -> None)
      events
  in
  Alcotest.(check int) "two complete events" 2 (List.length durs);
  Alcotest.(check bool) "durations non-negative" true (List.for_all (fun d -> d >= 0.0) durs);
  Alcotest.(check (float 1.0)) "span duration in us" 1_250_000.0 (List.hd durs);
  (* Both registries appear as named threads. *)
  let thread_names =
    List.filter_map
      (fun ev ->
        match (Json.member "ph" ev, Json.member "name" ev) with
        | Some (Json.Str "M"), Some (Json.Str "thread_name") ->
          (match Json.member "args" ev with
          | Some args ->
            (match Json.member "name" args with Some (Json.Str n) -> Some n | _ -> None)
          | None -> None)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "hv thread" true (List.mem "hv" thread_names);
  Alcotest.(check bool) "console thread" true (List.mem "console" thread_names)

let test_chrome_trace_tiebreak_deterministic () =
  (* Events sharing one timestamp must export in a pinned order:
     registry (tid) first, then each registry's recording sequence.
     Two identically-built pairs of registries must serialize
     byte-identically — the property the golden traces lean on. *)
  let build () =
    let clock () = 1.0 in
    let a = Telemetry.create ~clock ~name:"alpha" () in
    let b = Telemetry.create ~clock ~name:"beta" () in
    (* Interleave recording across registries at the same instant. *)
    Telemetry.instant b "b.first";
    Telemetry.instant a "a.first";
    Telemetry.instant b "b.second";
    Telemetry.instant a "a.second";
    Telemetry.export_chrome_trace [ a; b ]
  in
  let j1 = build () and j2 = build () in
  Alcotest.(check string) "same-ts export byte-identical" j1 j2;
  let pos name =
    let rec find i =
      if i + String.length name > String.length j1 then
        Alcotest.fail (name ^ " missing from trace")
      else if String.sub j1 i (String.length name) = name then i
      else find (i + 1)
    in
    find 0
  in
  (* Within a registry, recording order survives the sort... *)
  Alcotest.(check bool) "a.first before a.second" true
    (pos "a.first" < pos "a.second");
  Alcotest.(check bool) "b.first before b.second" true
    (pos "b.first" < pos "b.second");
  (* ...and the first-listed registry's events come first at a tie. *)
  Alcotest.(check bool) "alpha track before beta at same ts" true
    (pos "a.second" < pos "b.first")

let test_chrome_trace_counter_track () =
  (* Gauge writes surface as Chrome-trace counter events ("ph":"C") so
     Perfetto draws occupancy/goodput tracks next to the spans.  The
     export is pinned: two identical builds serialize byte-for-byte. *)
  let build () =
    let t = ref 0.0 in
    let reg = Telemetry.create ~clock:(fun () -> !t) ~name:"svc" () in
    let g = Telemetry.gauge reg "queue.depth" in
    Telemetry.set g 1.0;
    t := 0.5;
    Telemetry.set g 3.0;
    t := 1.0;
    Telemetry.instant reg "tick";
    Telemetry.export_chrome_trace [ reg ]
  in
  let json = build () in
  Alcotest.(check string) "counter export deterministic" json (build ());
  let doc = try Json.parse json with Json.Parse_error e -> Alcotest.fail e in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List es) -> es
    | _ -> Alcotest.fail "missing traceEvents"
  in
  let counters =
    List.filter (fun ev -> Json.member "ph" ev = Some (Json.Str "C")) events
  in
  Alcotest.(check int) "one C event per gauge write" 2 (List.length counters);
  List.iter
    (fun ev ->
      (match Json.member "name" ev with
      | Some (Json.Str "queue.depth") -> ()
      | _ -> Alcotest.fail "counter name mismatch");
      match Json.member "cat" ev with
      | Some (Json.Str "gauge") -> ()
      | _ -> Alcotest.fail "counter cat mismatch")
    counters;
  let values =
    List.filter_map
      (fun ev ->
        match Json.member "args" ev with
        | Some args -> (
          match Json.member "value" args with
          | Some (Json.Num v) -> Some v
          | _ -> None)
        | None -> None)
      counters
  in
  Alcotest.(check (list (float 1e-9))) "values chronological" [ 1.0; 3.0 ] values;
  let ts =
    List.filter_map
      (fun ev ->
        match Json.member "ts" ev with Some (Json.Num t) -> Some t | _ -> None)
      counters
  in
  Alcotest.(check (list (float 1.0))) "timestamps in us" [ 0.0; 500_000.0 ] ts

let prop_event_conservation =
  (* Counting invariant under any emission sequence: every emitted
     event is either retained or counted as dropped — the buffer never
     loses one silently and never double-counts. *)
  QCheck.Test.make ~name:"events recorded + dropped = emitted" ~count:200
    QCheck.(pair (int_range 1 32) (list bool))
    (fun (cap, ops) ->
      let reg = Telemetry.create ~max_events:cap ~name:"t" () in
      List.iter
        (fun is_span ->
          if is_span then Telemetry.finish (Telemetry.span reg "s")
          else Telemetry.instant reg "i")
        ops;
      Telemetry.events_recorded reg + Telemetry.events_dropped reg
      = List.length ops)

let test_snapshot_self_gauges () =
  let reg = Telemetry.create ~max_events:8 ~name:"svc" () in
  for i = 1 to 11 do
    Telemetry.instant reg (Printf.sprintf "e%d" i)
  done;
  let snap = Telemetry.snapshot reg in
  (match Telemetry.find snap "telemetry.events_dropped" with
  | Some (Telemetry.Gauge g) -> Alcotest.(check (float 1e-9)) "dropped" 3.0 g
  | _ -> Alcotest.fail "expected telemetry.events_dropped gauge");
  match Telemetry.find snap "telemetry.buffer_occupancy" with
  | Some (Telemetry.Gauge g) -> Alcotest.(check (float 1e-9)) "occupancy" 1.0 g
  | _ -> Alcotest.fail "expected telemetry.buffer_occupancy gauge"

let test_chrome_trace_escapes_strings () =
  let reg = Telemetry.create ~name:"t" () in
  Telemetry.instant reg ~args:[ ("msg", "quote \" backslash \\ newline \n tab \t") ]
    "weird \"name\"";
  let json = Telemetry.export_chrome_trace [ reg ] in
  match Json.parse json with
  | exception Json.Parse_error e -> Alcotest.fail e
  | _ -> ()

(* ------------------ snapshot = reference (qcheck) ----------------- *)

type op =
  | Count of int * int (* name, increment *)
  | Set of int * int (* name, value *)
  | Observe of int * int (* name, sample *)
  | Event

let print_op = function
  | Count (n, v) -> Printf.sprintf "count m%d %d" n v
  | Set (n, v) -> Printf.sprintf "set m%d %d" n v
  | Observe (n, v) -> Printf.sprintf "observe m%d %d" n v
  | Event -> "event"

(* Random registration orders of counters, gauges and histograms over
   six names, so that some names clash in kind (both registries must
   then raise the same error), with their updates and with events past
   a 4-event buffer: after every step the snapshot equals the one the
   list-and-lookup reference in [Telemetry_ref] builds. *)
let prop_snapshot_matches_reference =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun n v -> Count (n, v)) (0 -- 5) (0 -- 9));
          (3, map2 (fun n v -> Set (n, v)) (0 -- 5) (-50 -- 50));
          (3, map2 (fun n v -> Observe (n, v)) (0 -- 5) (-50 -- 50));
          (1, return Event);
        ])
  in
  QCheck.Test.make ~name:"snapshot = list-and-lookup reference" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_op) QCheck.Gen.(list_size (0 -- 40) op))
    (fun ops ->
      let reg = Telemetry.create ~max_events:4 ~name:"svc" () in
      let rf = Telemetry_ref.create ~max_events:4 ~name:"svc" () in
      let name n = Printf.sprintf "m%d" n in
      let apply_lib = function
        | Count (n, by) -> Telemetry.incr ~by (Telemetry.counter reg (name n))
        | Set (n, v) -> Telemetry.set (Telemetry.gauge reg (name n)) (float_of_int v)
        | Observe (n, v) ->
          Telemetry.observe (Telemetry.histogram reg (name n)) (float_of_int v)
        | Event -> Telemetry.instant reg "e"
      and apply_ref = function
        | Count (n, by) -> Telemetry_ref.incr ~by (Telemetry_ref.counter rf (name n))
        | Set (n, v) -> Telemetry_ref.set (Telemetry_ref.gauge rf (name n)) (float_of_int v)
        | Observe (n, v) ->
          Telemetry_ref.observe (Telemetry_ref.histogram rf (name n)) (float_of_int v)
        | Event -> Telemetry_ref.instant rf
      in
      let outcome apply op =
        match apply op with () -> None | exception Invalid_argument m -> Some m
      in
      List.for_all
        (fun op ->
          outcome apply_lib op = outcome apply_ref op
          && Telemetry.snapshot reg = Telemetry_ref.snapshot rf)
        ops)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          qc prop_counter_is_sum_of_increments;
          qc prop_counter_monotone;
        ] );
      ("histograms", [ qc prop_histogram_quantiles_ordered ]);
      ( "spans",
        [
          Alcotest.test_case "recording" `Quick test_span_recording;
          Alcotest.test_case "bounded buffer" `Quick test_event_buffer_bounded;
          Alcotest.test_case "with_span on exception" `Quick
            test_with_span_closes_on_exception;
          qc prop_event_conservation;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "uniform surface" `Quick test_snapshot_surface;
          qc prop_snapshot_matches_reference;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "golden export" `Quick test_chrome_trace_golden;
          Alcotest.test_case "same-ts tiebreak deterministic" `Quick
            test_chrome_trace_tiebreak_deterministic;
          Alcotest.test_case "gauge counter track" `Quick
            test_chrome_trace_counter_track;
          Alcotest.test_case "string escaping" `Quick test_chrome_trace_escapes_strings;
        ] );
      ( "self-observability",
        [ Alcotest.test_case "snapshot self gauges" `Quick test_snapshot_self_gauges ] );
    ]
