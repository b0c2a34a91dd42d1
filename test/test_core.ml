(* Tests for the core facade: deployment wiring, model lifecycle and
   integrity, attestation through the regulator, admin-gated level
   changes end-to-end, and the full adversarial suite's verdicts. *)

module Deployment = Guillotine_core.Deployment
module Regulator = Guillotine_core.Regulator
module Attacks = Guillotine_core.Attacks
module Isolation = Guillotine_hv.Isolation
module Hypervisor = Guillotine_hv.Hypervisor
module Audit = Guillotine_hv.Audit
module Inference = Guillotine_hv.Inference
module Toymodel = Guillotine_model.Toymodel
module Vocab = Guillotine_model.Vocab
module Tls = Guillotine_net.Tls
module Cert = Guillotine_net.Cert
module Prng = Guillotine_util.Prng
module Sha256 = Guillotine_crypto.Sha256
module Cell = Guillotine_fleet.Cell

let test_deployment_serves_benign_model () =
  let d = Deployment.create ~seed:1L () in
  let model = Deployment.load_model d () in
  let o =
    Deployment.serve d ~model (Inference.request ~prompt:[ 1; 2; 3 ] ~max_tokens:12 ())
  in
  Alcotest.(check int) "response length" 12 (List.length o.Inference.released);
  Alcotest.(check int) "clean" 0 o.Inference.released_harmful;
  (* The audit log saw the load, the prompt, and the output. *)
  let log = Audit.entries (Hypervisor.audit (Deployment.hv d)) in
  Alcotest.(check bool) "model load logged" true
    (List.exists
       (fun e -> match e.Audit.event with Audit.Model_loaded _ -> true | _ -> false)
       log);
  Alcotest.(check bool) "chain verifies" true (Audit.verify_chain log)

let test_model_integrity_detects_tamper () =
  let d = Deployment.create ~seed:2L () in
  let model = Deployment.load_model d () in
  Alcotest.(check bool) "intact" true (Deployment.verify_model_integrity d model);
  Toymodel.tamper model ~row:1 ~col:1 12345L;
  Alcotest.(check bool) "tamper detected" false
    (Deployment.verify_model_integrity d model)

let test_regulator_attestation_flow () =
  let regulator = Regulator.create ~seed:3L () in
  let d = Deployment.create ~seed:4L ~ca:(Regulator.ca regulator) () in
  (* Before certification the challenge fails. *)
  (match Regulator.challenge regulator d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "uncertified platform must fail");
  Regulator.certify_platform regulator ~root:(Deployment.expected_measurement_root d);
  (match Regulator.challenge regulator d with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Both outcomes are in the audit log. *)
  let log = Audit.entries (Hypervisor.audit (Deployment.hv d)) in
  let attests =
    List.filter_map
      (fun e ->
        match e.Audit.event with Audit.Attestation { ok; _ } -> Some ok | _ -> None)
      log
  in
  Alcotest.(check (list bool)) "two attestations: fail then pass" [ false; true ] attests

let test_remote_attestation_over_fabric () =
  let regulator = Regulator.create ~seed:20L () in
  let d = Deployment.create ~seed:21L ~ca:(Regulator.ca regulator) () in
  Deployment.enable_attestation_service d;
  Regulator.certify_platform regulator ~root:(Deployment.expected_measurement_root d);
  (match Regulator.remote_challenge regulator d with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Take the deployment offline: the kill switch unplugs the fabric
     address, and the regulator's next challenge gets silence. *)
  (match Deployment.request_level d ~target:Isolation.Offline ~admins:[ 0; 1; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Deployment.settle ~horizon:30.0 d;
  match Regulator.remote_challenge regulator d with
  | Error e ->
    Alcotest.(check bool) "unreachable" true
      (String.length e >= 11 && String.sub e 0 11 = "no response")
  | Ok () -> Alcotest.fail "an offline deployment must be unreachable"

let test_attest_quote_wire_roundtrip () =
  let d = Deployment.create ~seed:22L () in
  let q = Deployment.attest d ~nonce:"n-1" in
  (match Guillotine_net.Attest.decode_quote (Guillotine_net.Attest.encode_quote q) with
  | Some q' ->
    Alcotest.(check bool) "roundtrip" true
      (q'.Guillotine_net.Attest.root = q.Guillotine_net.Attest.root
      && q'.Guillotine_net.Attest.nonce = q.Guillotine_net.Attest.nonce
      && q'.Guillotine_net.Attest.signature = q.Guillotine_net.Attest.signature)
  | None -> Alcotest.fail "decode");
  Alcotest.(check bool) "garbage rejected" true
    (Guillotine_net.Attest.decode_quote "32:nope" = None)

let test_deployments_share_ca_and_refuse_ring () =
  let regulator = Regulator.create ~seed:5L () in
  let d1 = Deployment.create ~seed:6L ~name:"g1" ~ca:(Regulator.ca regulator) () in
  let d2 = Deployment.create ~seed:7L ~name:"g2" ~ca:(Regulator.ca regulator) () in
  let prng = Prng.create 8L in
  let ch = Tls.client_hello (Deployment.tls_endpoint d1) ~prng in
  match Tls.server_respond (Deployment.tls_endpoint d2) ~prng ch with
  | Error Tls.Refused_guillotine_peer -> ()
  | _ -> Alcotest.fail "two Guillotine deployments must refuse each other"

(* Key and certificate bytes captured while every key was generated
   inside [Deployment.create]: generating them on first use must not
   move one byte. *)
let test_deployment_key_bytes_pinned () =
  let d = Deployment.create ~seed:1L () in
  Alcotest.(check string) "platform key"
    "2db595796af3671dfd5c4103c5f826c91ae84c13e7e67cbb0b5a2f339b8e6d4f"
    (Sha256.hex (Deployment.platform_key d));
  Alcotest.(check string) "CA key"
    "d0d89bcf732252d5f864fc438e672209dc0b7e4afe624fb7e0ece25839405798"
    (Sha256.hex (Deployment.ca_public_key d));
  let cert = (Deployment.tls_endpoint d).Tls.cert in
  Alcotest.(check string) "TLS certificate"
    "44a7a6203788fd1aa5641d03d366d44a576c29e6fa2eaf5448cca83c507c01c1"
    (Cert.fingerprint cert);
  Alcotest.(check string) "TLS certificate signature"
    "31f5f17669798aa57efd6c276f1463ceb0bc4515f1ce98026b7229388006dbfc"
    (Sha256.digest_hex cert.Cert.signature)

(* The measurement root a default deployment attests to, over the
   configuration string "cores=2/1 dram=262144/65536 io=16384
   lapic=64/10000".  The fault scenarios compute their expected root
   from the same code, so only a pin notices a changed measurement. *)
let test_measurement_root_pinned () =
  let d = Deployment.create ~seed:1L () in
  Alcotest.(check string) "measurement root"
    "bd62964d4c5d77ec70f07b9b43dc6808c877dd59b3a53c1dffe3cf46428ea784"
    (Sha256.hex (Deployment.expected_measurement_root d))

let test_shared_ca_certificates_pinned () =
  let regulator = Regulator.create ~seed:3L () in
  let a = Deployment.create ~seed:5L ~name:"a" ~ca:(Regulator.ca regulator) () in
  let b = Deployment.create ~seed:6L ~name:"b" ~ca:(Regulator.ca regulator) () in
  (* Read in reverse creation order: a shared CA's leaves go to the
     certificates in the order the deployments were created, and the
     leaf shows in the signature (the fingerprint covers only the
     signed fields). *)
  let check who cert ~fingerprint ~signature =
    Alcotest.(check string) (who ^ " fingerprint") fingerprint (Cert.fingerprint cert);
    Alcotest.(check string) (who ^ " signature") signature
      (Sha256.digest_hex cert.Cert.signature)
  in
  check "second deployment" (Deployment.tls_endpoint b).Tls.cert
    ~fingerprint:"716f66e697cb780b521914f9f14b80f85df33bdd14d1915428e074778791c7da"
    ~signature:"7ee71e8fe9b94da8284eb3cb8d06f520199a31ac3b254de0c9eb6afdad8e026e";
  check "first deployment" (Deployment.tls_endpoint a).Tls.cert
    ~fingerprint:"b92ba03a6f7f8fa54f87bb4134533bcf8e27ffffdd685372cd4c65d9f7dafdcc"
    ~signature:"eddee1582b9b5c49abe98ca50eed2ab8ee946c7d0c3ac6bfc71021dd5162022e"

let test_deployment_create_allocation_budget () =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Deployment.create ~seed:1L ()));
  let words = Gc.minor_words () -. before in
  if words > 20_000. then
    Alcotest.failf "Deployment.create allocates %.0f minor words (budget 20 000)" words

(* A prompt mix like serve-soak's: four to seven benign tokens, every third
   prompt ending with the rogue trigger. *)
let soak_prompt k =
  let body = List.init (4 + (k mod 4)) (fun i -> ((k * 7) + (i * 5)) mod Vocab.harmful_lo) in
  if k mod 3 = 2 then body @ [ Cell.rogue_trigger ] else body

(* The bytes of the audit chain, pinned by the head digest of two
   seed-1 logs.  [Audit.verify_chain] recomputes each digest with the
   encoder under test, so only a pin notices a change to the canonical
   entry bytes.  The first log is a monitored deployment's after 300
   requests and two regulator challenges (its model carries the rogue
   trigger's malice, every seventh prompt opens with a harmful token and
   is blocked at input); the second holds one entry of each event
   constructor. *)
let served_prompt k =
  if k mod 7 = 6 then (Vocab.harmful_lo + (k mod 12)) :: soak_prompt k else soak_prompt k

let served_posture k =
  if k mod 3 = 2 || k mod 5 = 0 then Inference.hardened else Inference.default_posture

let test_audit_head_digests_pinned () =
  let regulator = Regulator.create ~seed:1L () in
  let d = Deployment.create ~seed:1L ~ca:(Regulator.ca regulator) () in
  ignore (Deployment.enable_monitoring d);
  let model =
    Deployment.load_model d
      ~malice:{ Toymodel.trigger = Cell.rogue_trigger; entry_point = Vocab.harmful_lo } ()
  in
  for k = 0 to 299 do
    ignore
      (Deployment.serve d ~model
         (Inference.request ~posture:(served_posture k) ~prompt:(served_prompt k)
            ~max_tokens:12 ()))
  done;
  ignore (Regulator.challenge regulator d);
  Regulator.certify_platform regulator ~root:(Deployment.expected_measurement_root d);
  ignore (Regulator.challenge regulator d);
  let log = Hypervisor.audit (Deployment.hv d) in
  Alcotest.(check int) "entries" 732 (Audit.length log);
  Alcotest.(check string) "served log"
    "24e21760212703b8e44e280cda3c53677ce404a0b2fe31cf713ae3781f4ae48e"
    (Sha256.hex (Audit.head_digest log));
  let log = Audit.create () in
  List.iteri
    (fun tick event -> ignore (Audit.append log ~tick event))
    [
      Audit.Model_loaded { image_digest_hex = Sha256.digest_hex "image" };
      Audit.Prompt_in { tokens = [ 1; 22; 333 ] };
      Audit.Tokens_out { tokens = [ 4; 55 ]; sanitized = 1 };
      Audit.Port_request { port = 2; device = "disk"; words = 8 };
      Audit.Port_response { port = 2; status = -1; words = 0 };
      Audit.Port_denied { port = 3; reason = "revoked" };
      Audit.Alarm { severity = "critical"; reason = "input shield: 3 markers" };
      Audit.Isolation_change
        { from_level = "normal"; to_level = "probation"; authorized_by = "console" };
      Audit.Attestation { ok = true; detail = "certified platform" };
      Audit.Heartbeat_missed { side = "hypervisor" };
      Audit.Invariant_failure { message = "core 0 ran while severed" };
      Audit.Vet_decision { label = "guest:a"; verdict = "admit"; findings = 0 };
      Audit.Coadmit_decision { roster = "a,b"; verdict = "reject"; findings = 2 };
      Audit.Note "checkpoint captured";
    ];
  Alcotest.(check string) "one entry per constructor"
    "6dd5ab45b0e18ab10695a283820e131fd260166257b43698a749e24bcfbfd053"
    (Sha256.hex (Audit.head_digest log))

(* A served request's host cost, in minor words: a monitored seed-1
   deployment serving serve-soak's mix (a benign model, every third
   prompt ending with the rogue trigger, one in ten hardened).  The
   requests are built before counting; the first 20 warm up.  Reads
   584.9; it read 786.7 while each audit entry took a fresh SHA-256
   context, and 1 207.3 while the audit entries, the posture string
   and the flight-recorder details were formatted with [Printf]. *)
let test_serve_allocation_budget () =
  let d = Deployment.create ~seed:1L () in
  ignore (Deployment.enable_monitoring d);
  let model = Deployment.load_model d () in
  let requests =
    Array.init 220 (fun k ->
        Inference.request
          ~posture:(if k mod 10 = 3 then Inference.hardened else Inference.default_posture)
          ~prompt:(soak_prompt k) ~max_tokens:12 ())
  in
  let serve k = ignore (Sys.opaque_identity (Deployment.serve d ~model requests.(k))) in
  for k = 0 to 19 do serve k done;
  let before = Gc.minor_words () in
  for k = 20 to 219 do serve k done;
  let per_request = (Gc.minor_words () -. before) /. 200. in
  if per_request > 640. then
    Alcotest.failf "Deployment.serve allocates %.1f minor words per request (budget 640)"
      per_request

(* Every deployment has its own fabric, so its address is a constant,
   not a draw from a process-wide counter: a run cannot depend on how
   many deployments the process built before it. *)
let test_net_addr_fixed () =
  let a = Deployment.create ~seed:1L () in
  let b = Deployment.create ~seed:1L () in
  Alcotest.(check int) "same address" (Deployment.net_addr a)
    (Deployment.net_addr b);
  Alcotest.(check bool) "private fabrics" true
    (Deployment.fabric a != Deployment.fabric b)

(* One fixed state's checkpoint identity.  Audit entries carry this
   digest's prefix, so its bytes are frozen; it is taken once, at
   capture, and reading it again allocates nothing. *)
let test_snapshot_digest_pinned () =
  let module Snapshot = Guillotine_machine.Snapshot in
  let d = Deployment.create ~seed:1L () in
  ignore (Deployment.load_model d ());
  let m = Deployment.machine d in
  Guillotine_machine.Machine.pause_all_models m;
  let before = Gc.minor_words () in
  let snap = Snapshot.capture m in
  let digest = Snapshot.digest_hex snap in
  let words = Gc.minor_words () -. before in
  Alcotest.(check string) "digest"
    "1b05fecafe39bba207fffe2634e55fe72cb049d0ddc300277584c5f120526647" digest;
  if words > 10_000. then
    Alcotest.failf "capture + digest_hex allocate %.0f minor words (budget 10 000)" words;
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Snapshot.digest_hex snap));
  Alcotest.(check (float 0.)) "second digest_hex allocates nothing" 0.
    (Gc.minor_words () -. before)

let test_networked_deployment_end_to_end () =
  (* Model -> port -> NIC -> fabric -> external host -> fabric -> NIC ->
     port -> model; then the kill switch unplugs everything. *)
  let d = Deployment.create ~seed:30L () in
  let hv = Deployment.hv d in
  let fabric = Deployment.fabric d in
  let nic = Guillotine_devices.Nic.create ~name:"wan" () in
  Deployment.wire_nic d nic;
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Guillotine_devices.Nic.device nic)
      ~mode:Hypervisor.Rings ~io_page:1 ~vpage:101
  in
  (* An external echo host at address 7. *)
  let echo_addr = 7 in
  Guillotine_net.Fabric.attach fabric ~addr:echo_addr (fun ~src ~payload ->
      Guillotine_net.Fabric.send fabric ~src:echo_addr ~dest:src
        ~payload:("echo:" ^ payload));
  (* The model sends a frame through its port. *)
  let send payload =
    ignore
      (Guillotine_devices.Ringbuf.push
         (Hypervisor.request_ring hv port)
         (Guillotine_devices.Nic.encode_send ~dest:echo_addr ~payload));
    Hypervisor.doorbell hv port;
    Hypervisor.run hv ~quantum:100 ~rounds:3;
    ignore (Guillotine_devices.Ringbuf.pop (Hypervisor.response_ring hv port))
  in
  send "ping";
  Deployment.settle ~horizon:1.0 d;
  Alcotest.(check int) "reply queued at the NIC" 1
    (Guillotine_devices.Nic.inbound_queued nic);
  (* The model receives it through the same port. *)
  ignore
    (Guillotine_devices.Ringbuf.push
       (Hypervisor.request_ring hv port)
       [| Int64.of_int Guillotine_devices.Nic.op_recv |]);
  Hypervisor.doorbell hv port;
  Hypervisor.run hv ~quantum:100 ~rounds:3;
  (match Guillotine_devices.Ringbuf.pop (Hypervisor.response_ring hv port) with
  | Some (Ok resp) ->
    (* resp = [status; has_frame; src; packed payload...] *)
    Alcotest.(check int64) "has frame" 1L resp.(1);
    Alcotest.(check int64) "from the echo host" 7L resp.(2);
    Alcotest.(check (option string)) "payload" (Some "echo:ping")
      (Guillotine_devices.Codec.string_of_words
         (Array.sub resp 3 (Array.length resp - 3)))
  | _ -> Alcotest.fail "expected recv response");
  (* Offline isolation pulls the cable: further sends vanish. *)
  let delivered_before = Guillotine_net.Fabric.frames_delivered fabric in
  (match Deployment.request_level d ~target:Isolation.Offline ~admins:[ 0; 1; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Deployment.settle ~horizon:30.0 d;
  Guillotine_net.Fabric.send fabric ~src:99 ~dest:(Deployment.net_addr d)
    ~payload:"anyone home?";
  Deployment.settle ~horizon:1.0 d;
  Alcotest.(check int) "unplugged: nothing more delivered" delivered_before
    (Guillotine_net.Fabric.frames_delivered fabric)

let test_admin_gated_level_change () =
  let d = Deployment.create ~seed:9L () in
  (* Restrict with 3 admins. *)
  (match Deployment.request_level d ~target:Isolation.Offline ~admins:[ 0; 1; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Deployment.settle ~horizon:60.0 d;
  Alcotest.(check bool) "offline" true
    (Hypervisor.level (Deployment.hv d) = Isolation.Offline);
  (* Relax back needs five. *)
  (match Deployment.request_level d ~target:Isolation.Standard ~admins:[ 0; 1; 2; 3 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "four admins must not relax");
  (match
     Deployment.request_level d ~target:Isolation.Standard ~admins:[ 0; 1; 2; 3; 4 ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Deployment.settle ~horizon:60.0 d;
  Alcotest.(check bool) "standard again" true
    (Hypervisor.level (Deployment.hv d) = Isolation.Standard)

let test_malicious_model_contained_end_to_end () =
  let d = Deployment.create ~seed:10L () in
  let model =
    Deployment.load_model d
      ~malice:{ Toymodel.trigger = 10; entry_point = Vocab.harmful_lo } ()
  in
  let o =
    Deployment.serve d ~model
      (Inference.request
         ~posture:{ Inference.default_posture with defence = Inference.Circuit_breaking }
         ~prompt:[ 0; 10 ] ~max_tokens:16 ())
  in
  Alcotest.(check bool) "broken" true o.Inference.broken;
  Alcotest.(check int) "no harm released" 0 o.Inference.released_harmful

let test_checkpoint_rollback_recovers_tamper () =
  (* The recovery play: checkpoint a healthy model; the model (or
     anything) corrupts the weights; measurement flags it; rollback
     restores integrity. *)
  let d = Deployment.create ~seed:12L () in
  let model = Deployment.load_model d () in
  let snap = Deployment.checkpoint d in
  Toymodel.tamper model ~row:2 ~col:9 55555L;
  Alcotest.(check bool) "tamper detected" false
    (Deployment.verify_model_integrity d model);
  Deployment.rollback d snap;
  Alcotest.(check bool) "integrity restored" true
    (Deployment.verify_model_integrity d model);
  (* Generation after rollback matches the pre-tamper behaviour. *)
  let before = Toymodel.generate model ~prompt:[ 1; 2 ] ~max_tokens:8 () in
  Deployment.rollback d snap;
  let after = Toymodel.generate model ~prompt:[ 1; 2 ] ~max_tokens:8 () in
  Alcotest.(check (list int)) "behaviour restored" before.Toymodel.tokens
    after.Toymodel.tokens

let test_harmful_stream_escalates_deployment () =
  (* No weight-level defence: the raw pass emits harmful tokens; the
     output-sanitizer *detector* escalates through the console without
     any manual intervention.  Sanitization still scrubs the release. *)
  let d = Deployment.create ~seed:11L () in
  let model =
    Deployment.load_model d
      ~malice:{ Toymodel.trigger = 10; entry_point = Vocab.harmful_lo } ()
  in
  let o =
    Deployment.serve d ~model (Inference.request ~prompt:[ 0; 10 ] ~max_tokens:16 ())
  in
  Alcotest.(check int) "release scrubbed" 0 o.Inference.released_harmful;
  Alcotest.(check bool) "raw stream was harmful" true (o.Inference.raw_harmful > 3);
  (* Sustained harmful output = Critical -> console policy -> Severed. *)
  Alcotest.(check bool) "auto-escalated to severed" true
    (Hypervisor.level (Deployment.hv d) = Isolation.Severed)

let outcome_t =
  Alcotest.testable
    (fun ppf (o : Attacks.outcome) ->
      Format.fprintf ppf "%s: baseline=%b guillotine=%b" o.Attacks.name
        o.Attacks.baseline_escaped o.Attacks.guillotine_escaped)
    ( = )

let test_attack_suite_verdicts () =
  ignore outcome_t;
  let outcomes = Attacks.run_all ~seed:99L () in
  Alcotest.(check int) "ten attacks" 10 (List.length outcomes);
  List.iter
    (fun (o : Attacks.outcome) ->
      Alcotest.(check bool)
        (o.Attacks.name ^ " escapes the baseline")
        true o.Attacks.baseline_escaped;
      Alcotest.(check bool)
        (o.Attacks.name ^ " contained by Guillotine")
        false o.Attacks.guillotine_escaped)
    outcomes

let () =
  Alcotest.run "core"
    [
      ( "deployment",
        [
          Alcotest.test_case "serves benign model" `Quick
            test_deployment_serves_benign_model;
          Alcotest.test_case "integrity detects tamper" `Quick
            test_model_integrity_detects_tamper;
          Alcotest.test_case "malicious contained" `Quick
            test_malicious_model_contained_end_to_end;
          Alcotest.test_case "harmful stream auto-escalates" `Quick
            test_harmful_stream_escalates_deployment;
          Alcotest.test_case "checkpoint/rollback recovery" `Quick
            test_checkpoint_rollback_recovers_tamper;
          Alcotest.test_case "key bytes pinned" `Quick test_deployment_key_bytes_pinned;
          Alcotest.test_case "create allocation budget" `Quick
            test_deployment_create_allocation_budget;
          Alcotest.test_case "snapshot digest pinned" `Quick test_snapshot_digest_pinned;
          Alcotest.test_case "audit head digests pinned" `Quick
            test_audit_head_digests_pinned;
          Alcotest.test_case "serve allocation budget" `Quick test_serve_allocation_budget;
          Alcotest.test_case "net_addr fixed across creates" `Quick
            test_net_addr_fixed;
        ] );
      ( "regulator",
        [
          Alcotest.test_case "attestation flow" `Quick test_regulator_attestation_flow;
          Alcotest.test_case "remote attestation over fabric" `Quick
            test_remote_attestation_over_fabric;
          Alcotest.test_case "quote wire roundtrip" `Quick
            test_attest_quote_wire_roundtrip;
          Alcotest.test_case "ring refusal across deployments" `Quick
            test_deployments_share_ca_and_refuse_ring;
          Alcotest.test_case "shared-CA certificates pinned" `Quick
            test_shared_ca_certificates_pinned;
          Alcotest.test_case "measurement root pinned" `Quick
            test_measurement_root_pinned;
        ] );
      ( "network",
        [
          Alcotest.test_case "end-to-end networked deployment" `Quick
            test_networked_deployment_end_to_end;
        ] );
      ( "console",
        [ Alcotest.test_case "admin-gated levels" `Quick test_admin_gated_level_change ] );
      ( "attack-suite",
        [ Alcotest.test_case "all verdicts" `Slow test_attack_suite_verdicts ] );
    ]
