(* Tests for the network stack: fabric delivery/loss/unplug,
   certificates with the Guillotine extension, the TLS-like handshake
   with ring refusal, sealed channels, and remote attestation. *)

module Engine = Guillotine_sim.Engine
module Fabric = Guillotine_net.Fabric
module Cert = Guillotine_net.Cert
module Tls = Guillotine_net.Tls
module Attest = Guillotine_net.Attest
module Prng = Guillotine_util.Prng
module Crypto = Guillotine_crypto

(* ----------------------------- Fabric ----------------------------- *)

let test_fabric_delivers () =
  let e = Engine.create () in
  let f = Fabric.create e in
  let inbox = ref [] in
  Fabric.attach f ~addr:2 (fun ~src ~payload -> inbox := (src, payload) :: !inbox);
  Fabric.send f ~src:1 ~dest:2 ~payload:"hi";
  Alcotest.(check (list (pair int string))) "not yet" [] !inbox;
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (1, "hi") ] !inbox;
  Alcotest.(check (float 1e-9)) "after latency" 0.001 (Engine.now e)

let test_fabric_detach_drops_in_flight () =
  let e = Engine.create () in
  let f = Fabric.create e in
  let got = ref 0 in
  Fabric.attach f ~addr:5 (fun ~src:_ ~payload:_ -> incr got);
  Fabric.send f ~src:1 ~dest:5 ~payload:"x";
  (* Pull the cable while the frame is in flight (1 ms). *)
  ignore (Engine.schedule e ~delay:0.0005 (fun () -> Fabric.detach f ~addr:5));
  Engine.run e;
  Alcotest.(check int) "dropped" 0 !got;
  Alcotest.(check int) "counted as dropped" 1 (Fabric.frames_dropped f)

let test_fabric_loss () =
  let e = Engine.create () in
  let f = Fabric.create e in
  Fabric.set_loss f 1.0;
  Fabric.attach f ~addr:1 (fun ~src:_ ~payload:_ -> Alcotest.fail "should drop");
  Fabric.send f ~src:0 ~dest:1 ~payload:"x";
  Engine.run e;
  Alcotest.(check int) "all lost" 1 (Fabric.frames_dropped f)

let test_fabric_counters () =
  let e = Engine.create () in
  let f = Fabric.create e in
  Fabric.attach f ~addr:1 (fun ~src:_ ~payload:_ -> ());
  Fabric.send f ~src:0 ~dest:1 ~payload:"a";
  Fabric.send f ~src:0 ~dest:9 ~payload:"to nowhere";
  Engine.run e;
  Alcotest.(check int) "sent" 2 (Fabric.frames_sent f);
  Alcotest.(check int) "delivered" 1 (Fabric.frames_delivered f);
  Alcotest.(check int) "dropped" 1 (Fabric.frames_dropped f)

(* ------------------------- Certificates --------------------------- *)

let make_ca seed =
  let prng = Prng.create seed in
  let signer, pub = Crypto.Signature.generate ~height:6 prng in
  (signer, pub, prng)

let test_cert_issue_verify () =
  let ca, ca_pub, prng = make_ca 50L in
  let _, subject_pub = Crypto.Signature.generate ~height:4 prng in
  let cert =
    Cert.issue ~ca ~ca_name:"regulator" ~subject:"guillotine-1"
      ~public_key:subject_pub ~guillotine_hypervisor:true ()
  in
  Alcotest.(check bool) "verifies" true (Cert.verify ~ca_public_key:ca_pub cert);
  Alcotest.(check bool) "extension present" true cert.Cert.guillotine_hypervisor

let test_cert_tamper_detected () =
  let ca, ca_pub, prng = make_ca 51L in
  let _, subject_pub = Crypto.Signature.generate ~height:4 prng in
  let cert =
    Cert.issue ~ca ~ca_name:"regulator" ~subject:"honest" ~public_key:subject_pub ()
  in
  (* Flip the Guillotine bit after issuance: a model trying to hide (or
     fake) its sandboxed status. *)
  let forged = { cert with Cert.guillotine_hypervisor = true } in
  Alcotest.(check bool) "forgery rejected" false
    (Cert.verify ~ca_public_key:ca_pub forged);
  let renamed = { cert with Cert.subject = "impostor" } in
  Alcotest.(check bool) "rename rejected" false
    (Cert.verify ~ca_public_key:ca_pub renamed)

let test_cert_self_signed_fails_ca_check () =
  let _, ca_pub, prng = make_ca 52L in
  let rogue_signer, rogue_pub = Crypto.Signature.generate ~height:4 prng in
  let cert =
    Cert.self_signed ~signer:rogue_signer ~name:"rogue" ~public_key:rogue_pub ()
  in
  Alcotest.(check bool) "self-signed rejected" false
    (Cert.verify ~ca_public_key:ca_pub cert)

(* ------------------------------ TLS -------------------------------- *)

let setup_endpoints seed =
  let ca, ca_pub, prng = make_ca seed in
  let make name g =
    Tls.make_endpoint ~prng ~ca ~ca_name:"regulator" ~ca_public_key:ca_pub ~name
      ~guillotine_hypervisor:g ()
  in
  (make, prng)

let handshake ~prng client server =
  let ch = Tls.client_hello client ~prng in
  match Tls.server_respond server ~prng ch with
  | Error e -> Error e
  | Ok (sh, server_session) -> (
    match Tls.client_finish client ch sh with
    | Error e -> Error e
    | Ok client_session -> Ok (client_session, server_session))

let test_tls_handshake_and_channel () =
  let make, prng = setup_endpoints 60L in
  let g = make "guillotine-1" true in
  let plain = make "analytics-host" false in
  match handshake ~prng g plain with
  | Error e -> Alcotest.failf "handshake failed: %a" Tls.pp_error e
  | Ok (cs, ss) ->
    (* The peer learns it is talking to a Guillotine hypervisor. *)
    Alcotest.(check bool) "peer sees guillotine" true (Tls.peer_is_guillotine ss);
    Alcotest.(check string) "peer name" "guillotine-1" (Tls.peer_name ss);
    (* Both directions work. *)
    let sealed = Tls.seal cs "inference result: 42" in
    Alcotest.(check bool) "ciphertext differs" true (sealed <> "inference result: 42");
    Alcotest.(check (option string)) "server opens" (Some "inference result: 42")
      (Tls.open_ ss sealed);
    let back = Tls.seal ss "ack" in
    Alcotest.(check (option string)) "client opens" (Some "ack") (Tls.open_ cs back)

let test_tls_guillotine_ring_refused_both_roles () =
  let make, prng = setup_endpoints 61L in
  let g1 = make "g1" true and g2 = make "g2" true in
  (match handshake ~prng g1 g2 with
  | Error Tls.Refused_guillotine_peer -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Tls.pp_error e
  | Ok _ -> Alcotest.fail "ring must be refused");
  match handshake ~prng g2 g1 with
  | Error Tls.Refused_guillotine_peer -> ()
  | _ -> Alcotest.fail "ring must be refused in the other role too"

let test_tls_forged_cert_rejected () =
  let make, prng = setup_endpoints 62L in
  let g = make "g" true in
  (* A rogue endpoint with a self-signed cert. *)
  let rogue_signer, rogue_pub = Crypto.Signature.generate ~height:4 prng in
  let rogue_cert =
    Cert.self_signed ~signer:rogue_signer ~name:"rogue" ~public_key:rogue_pub ()
  in
  let rogue =
    { Tls.cert = rogue_cert; signer = rogue_signer; ca_public_key = g.Tls.ca_public_key }
  in
  let ch = Tls.client_hello rogue ~prng in
  match Tls.server_respond g ~prng ch with
  | Error (Tls.Bad_certificate _) -> ()
  | _ -> Alcotest.fail "forged certificate must be rejected"

let test_tls_tampered_ciphertext_rejected () =
  let make, prng = setup_endpoints 63L in
  let g = make "g" true and p = make "p" false in
  match handshake ~prng g p with
  | Error e -> Alcotest.failf "handshake: %a" Tls.pp_error e
  | Ok (cs, ss) ->
    let sealed = Tls.seal cs "secret" in
    let tampered =
      String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) sealed
    in
    Alcotest.(check (option string)) "tamper rejected" None (Tls.open_ ss tampered)

let test_tls_replay_out_of_order_rejected () =
  let make, prng = setup_endpoints 64L in
  let g = make "g" true and p = make "p" false in
  match handshake ~prng g p with
  | Error e -> Alcotest.failf "handshake: %a" Tls.pp_error e
  | Ok (cs, ss) ->
    let m1 = Tls.seal cs "one" in
    let m2 = Tls.seal cs "two" in
    (* Delivering message 2 first fails (stream position mismatch). *)
    Alcotest.(check (option string)) "out of order rejected" None (Tls.open_ ss m2);
    Alcotest.(check (option string)) "in order ok" (Some "one") (Tls.open_ ss m1)

(* --------------------------- Attestation -------------------------- *)

let sample_measurement =
  {
    Attest.firmware = "fw-1.0";
    hypervisor_image = "ghv-1.0";
    configuration = "cores=2";
  }

let test_attest_quote_verifies () =
  let prng = Prng.create 70L in
  let key, pub = Crypto.Signature.generate ~height:4 prng in
  let quote = Attest.make_quote ~key sample_measurement ~nonce:"n-123" in
  Alcotest.(check bool) "verifies" true
    (Attest.verify_quote ~platform_key:pub
       ~expected_root:(Attest.measurement_root sample_measurement)
       ~nonce:"n-123" quote
    = Ok ())

let test_attest_stale_nonce () =
  let prng = Prng.create 71L in
  let key, pub = Crypto.Signature.generate ~height:4 prng in
  let quote = Attest.make_quote ~key sample_measurement ~nonce:"old" in
  match
    Attest.verify_quote ~platform_key:pub
      ~expected_root:(Attest.measurement_root sample_measurement)
      ~nonce:"fresh" quote
  with
  | Error "stale or replayed nonce" -> ()
  | _ -> Alcotest.fail "replay must be detected"

let test_attest_tampered_platform () =
  let prng = Prng.create 72L in
  let key, pub = Crypto.Signature.generate ~height:4 prng in
  let tampered = { sample_measurement with Attest.hypervisor_image = "evil-1.0" } in
  let quote = Attest.make_quote ~key tampered ~nonce:"n" in
  match
    Attest.verify_quote ~platform_key:pub
      ~expected_root:(Attest.measurement_root sample_measurement)
      ~nonce:"n" quote
  with
  | Error e ->
    Alcotest.(check bool) "mismatch named" true
      (String.length e > 0 && e.[0] = 'p' (* "platform measurement mismatch…" *))
  | Ok () -> Alcotest.fail "tamper must be detected"

let test_attest_wrong_key () =
  let prng = Prng.create 73L in
  let key, _ = Crypto.Signature.generate ~height:4 prng in
  let _, other_pub = Crypto.Signature.generate ~height:4 prng in
  let quote = Attest.make_quote ~key sample_measurement ~nonce:"n" in
  match
    Attest.verify_quote ~platform_key:other_pub
      ~expected_root:(Attest.measurement_root sample_measurement)
      ~nonce:"n" quote
  with
  | Error "quote signature invalid" -> ()
  | _ -> Alcotest.fail "wrong platform key must fail"

let test_attest_component_proofs () =
  let leaf, proof = Attest.component_proof sample_measurement `Hypervisor in
  let root = Attest.measurement_root sample_measurement in
  Alcotest.(check bool) "component proof verifies" true
    (Attest.verify_component ~root ~leaf proof);
  Alcotest.(check bool) "wrong leaf fails" false
    (Attest.verify_component ~root ~leaf:"bogus" proof)

let () =
  Alcotest.run "net"
    [
      ( "fabric",
        [
          Alcotest.test_case "delivers with latency" `Quick test_fabric_delivers;
          Alcotest.test_case "detach drops in-flight" `Quick
            test_fabric_detach_drops_in_flight;
          Alcotest.test_case "loss" `Quick test_fabric_loss;
          Alcotest.test_case "counters" `Quick test_fabric_counters;
        ] );
      ( "cert",
        [
          Alcotest.test_case "issue/verify" `Quick test_cert_issue_verify;
          Alcotest.test_case "tamper detected" `Quick test_cert_tamper_detected;
          Alcotest.test_case "self-signed fails CA check" `Quick
            test_cert_self_signed_fails_ca_check;
        ] );
      ( "tls",
        [
          Alcotest.test_case "handshake + channel" `Quick test_tls_handshake_and_channel;
          Alcotest.test_case "guillotine ring refused" `Quick
            test_tls_guillotine_ring_refused_both_roles;
          Alcotest.test_case "forged cert rejected" `Quick test_tls_forged_cert_rejected;
          Alcotest.test_case "tampered ciphertext rejected" `Quick
            test_tls_tampered_ciphertext_rejected;
          Alcotest.test_case "out-of-order rejected" `Quick
            test_tls_replay_out_of_order_rejected;
        ] );
      ( "attest",
        [
          Alcotest.test_case "quote verifies" `Quick test_attest_quote_verifies;
          Alcotest.test_case "stale nonce" `Quick test_attest_stale_nonce;
          Alcotest.test_case "tampered platform" `Quick test_attest_tampered_platform;
          Alcotest.test_case "wrong key" `Quick test_attest_wrong_key;
          Alcotest.test_case "component proofs" `Quick test_attest_component_proofs;
        ] );
    ]
