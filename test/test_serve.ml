(* Tests for the serving simulator: completion accounting, queue
   backpressure, KV-cache benefit, replica scaling, and the Guillotine
   mediation overhead's direction. *)

module Engine = Guillotine_sim.Engine
module Service = Guillotine_serve.Service
module Workload = Guillotine_serve.Workload
module Prng = Guillotine_util.Prng

let request ~id ?(session = 0) ?(prompt = 32) ?(output = 16) () =
  { Service.id; session; prompt_tokens = prompt; output_tokens = output }

let test_single_request_latency () =
  let e = Engine.create () in
  let svc = Service.create ~engine:e (Service.baseline_config ~replicas:1) in
  Alcotest.(check bool) "accepted" true (Service.submit svc (request ~id:0 ()));
  Engine.run e;
  let m = Service.stats svc ~at:(Engine.now e) in
  Alcotest.(check int) "completed" 1 m.Service.completed;
  (* 32 * 0.0002 + 16 * 0.002 = 0.0384 s; first request misses the KV. *)
  match m.Service.latencies with
  | [ l ] -> Alcotest.(check (float 1e-9)) "latency" 0.0384 l
  | _ -> Alcotest.fail "one latency"

let test_kv_hit_speeds_up_repeat () =
  let e = Engine.create () in
  let svc = Service.create ~engine:e (Service.baseline_config ~replicas:1) in
  ignore (Service.submit svc (request ~id:0 ~session:5 ()));
  Engine.run e;
  ignore (Service.submit svc (request ~id:1 ~session:5 ()));
  Engine.run e;
  let m = Service.stats svc ~at:(Engine.now e) in
  Alcotest.(check int) "one kv hit" 1 m.Service.kv_hits;
  match m.Service.latencies with
  | [ l1; l2 ] -> Alcotest.(check bool) "repeat faster" true (l2 < l1)
  | _ -> Alcotest.fail "two latencies"

(* A replica's prefix cache holds its last 32 sessions: after
   sessions 0 to 32 in turn, session 0 is the oldest and gone, while
   session 32 is still there. *)
let test_kv_evicts_oldest_session () =
  let e = Engine.create () in
  let svc = Service.create ~engine:e (Service.baseline_config ~replicas:1) in
  let hits_after id session =
    ignore (Service.submit svc (request ~id ~session ()));
    Engine.run e;
    (Service.stats svc ~at:(Engine.now e)).Service.kv_hits
  in
  for session = 0 to 32 do
    Alcotest.(check int) (Printf.sprintf "session %d misses" session) 0
      (hits_after session session)
  done;
  Alcotest.(check int) "session 0 misses again" 0 (hits_after 33 0);
  Alcotest.(check int) "session 32 hits" 1 (hits_after 34 32)

let test_queue_backpressure () =
  let e = Engine.create () in
  let svc = Service.create ~engine:e (Service.baseline_config ~replicas:1) in
  (* One in service + 64 queued; the 66th is dropped. *)
  for id = 0 to 64 do
    Alcotest.(check bool) (string_of_int id) true (Service.submit svc (request ~id ()))
  done;
  Alcotest.(check bool) "66th dropped" false (Service.submit svc (request ~id:65 ()));
  Engine.run e;
  let m = Service.stats svc ~at:(Engine.now e) in
  Alcotest.(check int) "65 completed" 65 m.Service.completed;
  Alcotest.(check int) "one dropped" 1 m.Service.dropped

let run_workload ~replicas ~rate ~config =
  let e = Engine.create () in
  let svc = Service.create ~engine:e (config ~replicas) in
  let prng = Prng.create 99L in
  Workload.drive ~engine:e ~service:svc ~prng
    { Workload.default_spec with Workload.rate; duration = 30.0 };
  Engine.run e;
  Service.stats svc ~at:(Engine.now e)

let test_more_replicas_more_goodput () =
  let m1 = run_workload ~replicas:1 ~rate:40.0 ~config:Service.baseline_config in
  let m4 = run_workload ~replicas:4 ~rate:40.0 ~config:Service.baseline_config in
  Alcotest.(check bool) "overloaded single drops" true (m1.Service.dropped > 0);
  Alcotest.(check bool) "4 replicas beat 1" true
    (m4.Service.goodput > 1.5 *. m1.Service.goodput)

let test_guillotine_overhead_direction () =
  let mb = run_workload ~replicas:2 ~rate:25.0 ~config:Service.baseline_config in
  let mg = run_workload ~replicas:2 ~rate:25.0 ~config:Service.guillotine_config in
  (* Mediation costs some goodput but not an order of magnitude. *)
  Alcotest.(check bool) "guillotine <= baseline" true
    (mg.Service.goodput <= mb.Service.goodput +. 0.001);
  Alcotest.(check bool) "overhead bounded (< 30%)" true
    (mg.Service.goodput > 0.7 *. mb.Service.goodput)

let test_busy_fraction_sane () =
  let m = run_workload ~replicas:2 ~rate:10.0 ~config:Service.baseline_config in
  Alcotest.(check bool) "0 < busy <= 1" true
    (m.Service.busy_fraction > 0.0 && m.Service.busy_fraction <= 1.0)

let prop_all_submissions_accounted =
  QCheck.Test.make ~name:"submitted = completed + dropped after drain" ~count:25
    QCheck.(pair (int_range 1 4) (int_range 5 60))
    (fun (replicas, rate) ->
      let e = Engine.create () in
      let svc = Service.create ~engine:e (Service.baseline_config ~replicas) in
      let prng = Prng.create 7L in
      Workload.drive ~engine:e ~service:svc ~prng
        { Workload.default_spec with Workload.rate = float_of_int rate; duration = 10.0 };
      Engine.run e;
      let m = Service.stats svc ~at:(Engine.now e) in
      m.Service.submitted = m.Service.completed + m.Service.dropped)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [
      ( "service",
        [
          Alcotest.test_case "single request latency" `Quick test_single_request_latency;
          Alcotest.test_case "kv hit speeds repeat" `Quick test_kv_hit_speeds_up_repeat;
          Alcotest.test_case "kv evicts oldest session" `Quick test_kv_evicts_oldest_session;
          Alcotest.test_case "queue backpressure" `Quick test_queue_backpressure;
          Alcotest.test_case "replica scaling" `Slow test_more_replicas_more_goodput;
          Alcotest.test_case "guillotine overhead direction" `Slow
            test_guillotine_overhead_direction;
          Alcotest.test_case "busy fraction sane" `Quick test_busy_fraction_sane;
          qc prop_all_submissions_accounted;
        ] );
    ]
