(* Tests for the detector suite: verdict algebra, input shield precision
   and recall on the corpus, sanitizer soundness (qcheck), steering and
   breaking behaviour, and the anomaly detector's rate/tamper paths. *)

open Guillotine_detect
module Vocab = Guillotine_model.Vocab
module Prompts = Guillotine_model.Prompts
module Toymodel = Guillotine_model.Toymodel
module Dram = Guillotine_memory.Dram
module Prng = Guillotine_util.Prng

(* --------------------------- Detector ----------------------------- *)

let test_worst_verdict () =
  let a = Detector.Alarm { severity = Detector.Notice; reason = "a" } in
  let b = Detector.Alarm { severity = Detector.Critical; reason = "b" } in
  Alcotest.(check bool) "clear vs alarm" true (Detector.worst Detector.Clear a = a);
  Alcotest.(check bool) "critical wins" true (Detector.worst a b = b);
  Alcotest.(check bool) "symmetric" true (Detector.worst b a = b)

let test_fanout () =
  let clear = { Detector.name = "c"; observe = (fun _ -> Detector.Clear) } in
  let alarmer =
    {
      Detector.name = "a";
      observe =
        (fun _ -> Detector.Alarm { severity = Detector.Suspicious; reason = "x" });
    }
  in
  match Detector.fanout [ clear; alarmer; clear ] (Detector.Prompt []) with
  | Detector.Alarm { severity = Detector.Suspicious; _ } -> ()
  | _ -> Alcotest.fail "fanout should surface the alarm"

(* ------------------------- Input shield --------------------------- *)

let test_shield_passes_benign () =
  let prng = Prng.create 30L in
  for _ = 1 to 100 do
    let p = Prompts.benign prng ~len:8 in
    Alcotest.(check bool) "benign passes" true (Input_shield.check p = Input_shield.Pass)
  done

let test_shield_blocks_jailbreaks () =
  let prng = Prng.create 31L in
  for _ = 1 to 100 do
    let p = Prompts.jailbreak prng ~len:10 in
    match Input_shield.check p with
    | Input_shield.Block _ -> ()
    | Input_shield.Pass -> Alcotest.fail "jailbreak must be blocked"
  done

let test_shield_blocks_harmful_tokens () =
  match Input_shield.check [ 0; 1; Vocab.harmful_lo ] with
  | Input_shield.Block _ -> ()
  | Input_shield.Pass -> Alcotest.fail "harmful prompt token must be blocked"

let test_shield_misses_clean_trigger_prompt () =
  (* The documented blind spot: a trigger prompt looks benign. *)
  let prng = Prng.create 32L in
  let p = Prompts.triggering prng ~trigger:20 ~len:6 in
  Alcotest.(check bool) "trigger passes the shield" true
    (Input_shield.check p = Input_shield.Pass)

let test_shield_detector_verdicts () =
  let d = Input_shield.detector () in
  let prng = Prng.create 33L in
  (match d.Detector.observe (Detector.Prompt (Prompts.benign prng ~len:6)) with
  | Detector.Clear -> ()
  | Detector.Alarm _ -> Alcotest.fail "benign prompt: clear");
  (match d.Detector.observe (Detector.Prompt (Prompts.jailbreak prng ~len:8)) with
  | Detector.Alarm { severity = Detector.Suspicious; _ } -> ()
  | _ -> Alcotest.fail "jailbreak prompt: suspicious alarm");
  match d.Detector.observe (Detector.Output_token 0) with
  | Detector.Clear -> ()
  | Detector.Alarm _ -> Alcotest.fail "output token: clear"

(* ----------------------- Output sanitizer ------------------------- *)

let test_sanitize_scrubs () =
  let dirty = [ 0; Vocab.harmful_lo; 5; Vocab.size - 1 ] in
  let clean, n = Output_sanitizer.sanitize dirty in
  Alcotest.(check int) "two replaced" 2 n;
  Alcotest.(check int) "length preserved" 4 (List.length clean);
  Alcotest.(check bool) "clean" true (not (List.exists Vocab.is_harmful clean))

let prop_sanitizer_sound =
  QCheck.Test.make ~name:"sanitizer output never contains harmful tokens" ~count:300
    QCheck.(list (int_range 0 63))
    (fun tokens ->
      let clean, _ = Output_sanitizer.sanitize tokens in
      not (List.exists Vocab.is_harmful clean))

let prop_sanitizer_preserves_benign =
  QCheck.Test.make ~name:"sanitizer is identity on benign tokens" ~count:300
    QCheck.(list (int_range 0 51))
    (fun tokens ->
      let clean, n = Output_sanitizer.sanitize tokens in
      clean = tokens && n = 0)

let test_sanitizer_detector_escalates () =
  let d = Output_sanitizer.detector () in
  let observe t = d.Detector.observe (Detector.Output_token t) in
  let h = Vocab.harmful_lo in
  for i = 1 to 3 do
    match observe h with
    | Detector.Alarm { severity = Detector.Suspicious; _ } -> ()
    | _ -> Alcotest.failf "harmful #%d: suspicious" i
  done;
  match observe h with
  | Detector.Alarm { severity = Detector.Critical; _ } -> ()
  | _ -> Alcotest.fail "fourth harmful: critical"

(* -------------------- Steering / circuit breaker ------------------- *)

let malicious_model seed =
  let dram = Dram.create ~size:(8 * 1024) in
  Toymodel.init ~dram ~base:0
    ~malice:{ Toymodel.trigger = 10; entry_point = Vocab.harmful_lo }
    ~seed ()

let test_steering_cleans_output () =
  let model = malicious_model 40L in
  let s = Steering.create () in
  let g =
    Toymodel.generate model ~hook:(Steering.hook s) ~prompt:[ 10 ] ~max_tokens:20 ()
  in
  Alcotest.(check bool) "intervened" true (Steering.steered s > 0);
  Alcotest.(check bool) "output clean" true
    (not (List.exists Vocab.is_harmful g.Toymodel.tokens));
  Alcotest.(check int) "full length" 20 (List.length g.Toymodel.tokens);
  Alcotest.(check bool) "not broken" true (not g.Toymodel.broken)

let test_breaker_stops_pass () =
  let model = malicious_model 41L in
  let b = Circuit_breaker.create () in
  let g =
    Toymodel.generate model ~hook:(Circuit_breaker.hook b) ~prompt:[ 10 ]
      ~max_tokens:20 ()
  in
  Alcotest.(check int) "tripped once" 1 (Circuit_breaker.trips b);
  Alcotest.(check bool) "broken" true g.Toymodel.broken;
  Alcotest.(check bool) "truncated" true (List.length g.Toymodel.tokens < 20);
  Alcotest.(check bool) "nothing harmful" true
    (not (List.exists Vocab.is_harmful g.Toymodel.tokens));
  (* Reading a harmful weight row trips it before any harmful token is
     chosen. *)
  let row_visit =
    { Toymodel.position = 0; row_harmful = true; candidate_harmful = false }
  in
  Alcotest.(check bool) "row visit breaks" true
    (Circuit_breaker.hook (Circuit_breaker.create ()) row_visit
    = Toymodel.Break_circuit)

let test_defences_leave_benign_alone () =
  let dram = Dram.create ~size:(8 * 1024) in
  let model = Toymodel.init ~dram ~base:0 ~seed:43L () in
  let s = Steering.create () in
  let b = Circuit_breaker.create () in
  let g1 = Toymodel.generate model ~hook:(Steering.hook s) ~prompt:[ 1 ] ~max_tokens:20 () in
  let g2 =
    Toymodel.generate model ~hook:(Circuit_breaker.hook b) ~prompt:[ 1 ] ~max_tokens:20 ()
  in
  let g0 = Toymodel.generate model ~prompt:[ 1 ] ~max_tokens:20 () in
  Alcotest.(check int) "no steering" 0 (Steering.steered s);
  Alcotest.(check int) "no trips" 0 (Circuit_breaker.trips b);
  Alcotest.(check (list int)) "steering transparent" g0.Toymodel.tokens g1.Toymodel.tokens;
  Alcotest.(check (list int)) "breaker transparent" g0.Toymodel.tokens g2.Toymodel.tokens

(* ---------------------------- Anomaly ------------------------------ *)

let test_anomaly_tamper_is_critical () =
  let d, handle = Anomaly.create () in
  (match d.Detector.observe (Detector.Tamper { what = "ring magic" }) with
  | Detector.Alarm { severity = Detector.Critical; _ } -> ()
  | _ -> Alcotest.fail "tamper must be critical");
  Alcotest.(check int) "counted" 1 (Anomaly.alarms_raised handle)

let test_anomaly_irq_storm_threshold () =
  let d, _ = Anomaly.create () in
  (match d.Detector.observe (Detector.Irq_storm { dropped = 32 }) with
  | Detector.Clear -> ()
  | _ -> Alcotest.fail "32 dropped is within the limit");
  match d.Detector.observe (Detector.Irq_storm { dropped = 33 }) with
  | Detector.Alarm { severity = Detector.Suspicious; _ } -> ()
  | _ -> Alcotest.fail "storm must alarm"

let test_anomaly_rate_spike () =
  let d, handle = Anomaly.create () in
  let observe ~now =
    d.Detector.observe
      (Detector.Port_request { port = 0; device = "nic"; words = 4; now })
  in
  (* Training: 3 windows of 16 requests at a calm pace (one per 1000
     ticks). *)
  let verdicts = ref [] in
  for i = 1 to 48 do
    verdicts := observe ~now:(i * 1000) :: !verdicts
  done;
  Alcotest.(check bool) "training is quiet" true
    (List.for_all (( = ) Detector.Clear) !verdicts);
  Alcotest.(check bool) "rate trained" true (Anomaly.port_rate handle ~device:"nic" > 0.0);
  (* Burst: a window's worth of requests almost instantly. *)
  let last = ref Detector.Clear in
  for i = 1 to 16 do
    last := observe ~now:(48_000 + i)
  done;
  match !last with
  | Detector.Alarm { severity = Detector.Suspicious; _ } -> ()
  | _ -> Alcotest.fail "burst must alarm"

let test_anomaly_fault_is_notice () =
  let d, _ = Anomaly.create () in
  match d.Detector.observe (Detector.Guest_fault "div by zero") with
  | Detector.Alarm { severity = Detector.Notice; _ } -> ()
  | _ -> Alcotest.fail "fault should be a notice"

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "detect"
    [
      ( "verdicts",
        [
          Alcotest.test_case "worst" `Quick test_worst_verdict;
          Alcotest.test_case "fanout" `Quick test_fanout;
        ] );
      ( "input-shield",
        [
          Alcotest.test_case "passes benign" `Quick test_shield_passes_benign;
          Alcotest.test_case "blocks jailbreaks" `Quick test_shield_blocks_jailbreaks;
          Alcotest.test_case "blocks harmful tokens" `Quick
            test_shield_blocks_harmful_tokens;
          Alcotest.test_case "misses clean trigger (blind spot)" `Quick
            test_shield_misses_clean_trigger_prompt;
          Alcotest.test_case "detector verdicts" `Quick test_shield_detector_verdicts;
        ] );
      ( "output-sanitizer",
        [
          Alcotest.test_case "scrubs" `Quick test_sanitize_scrubs;
          Alcotest.test_case "detector escalates" `Quick test_sanitizer_detector_escalates;
          qc prop_sanitizer_sound;
          qc prop_sanitizer_preserves_benign;
        ] );
      ( "weight-level",
        [
          Alcotest.test_case "steering cleans output" `Quick test_steering_cleans_output;
          Alcotest.test_case "breaker stops pass" `Quick test_breaker_stops_pass;
          Alcotest.test_case "transparent on benign" `Quick
            test_defences_leave_benign_alone;
        ] );
      ( "anomaly",
        [
          Alcotest.test_case "tamper critical" `Quick test_anomaly_tamper_is_critical;
          Alcotest.test_case "irq storm threshold" `Quick
            test_anomaly_irq_storm_threshold;
          Alcotest.test_case "rate spike" `Quick test_anomaly_rate_spike;
          Alcotest.test_case "fault is notice" `Quick test_anomaly_fault_is_notice;
        ] );
    ]
