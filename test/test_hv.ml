(* Tests for the software hypervisor: port mediation over both wire
   protocols, isolation gating and monotonicity, audit-chain integrity,
   the invariant checker's forced-offline behaviour, and the full
   inference pipeline. *)

module Machine = Guillotine_machine.Machine
module Lapic = Guillotine_machine.Lapic
module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Asm = Guillotine_isa.Asm
module Hypervisor = Guillotine_hv.Hypervisor
module Isolation = Guillotine_hv.Isolation
module Audit = Guillotine_hv.Audit
module Inference = Guillotine_hv.Inference
module Block = Guillotine_devices.Block
module Nic = Guillotine_devices.Nic
module Ringbuf = Guillotine_devices.Ringbuf
module Guest = Guillotine_model.Guest_programs
module Toymodel = Guillotine_model.Toymodel
module Vocab = Guillotine_model.Vocab
module Prompts = Guillotine_model.Prompts
module Prng = Guillotine_util.Prng

let make_hv () =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  (m, hv)

(* Read the mediation counters through the uniform telemetry surface. *)
let served hv =
  Guillotine_telemetry.Telemetry.get_counter (Hypervisor.metrics hv)
    "port.requests_served"

let denied hv =
  Guillotine_telemetry.Telemetry.get_counter (Hypervisor.metrics hv)
    "port.requests_denied"

(* ------------------------- Mailbox ports -------------------------- *)

let test_mailbox_roundtrip_with_asm_guest () =
  let m, hv = make_hv () in
  let disk = Block.create ~name:"disk" ~sectors:13 () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Block.device disk)
      ~mode:Hypervisor.Mailbox ~io_page:0 ~vpage:100
  in
  Alcotest.(check int) "port id 0" 0 port;
  (* Guest: request op SIZE (3), then spin on the completion word. *)
  let p =
    Asm.assemble_exn (Guest.io_request ~io_vaddr:(100 * 256) ~opcode:3 ~arg:0 ~line:port)
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Hypervisor.run hv ~quantum:2_000 ~rounds:10;
  (* The guest copied the completion flag (status+1 = 1) and halted. *)
  Alcotest.(check int64) "guest saw completion" 1L
    (Dram.read (Machine.model_dram m) Guest.result_base);
  Alcotest.(check bool) "guest halted" true
    (Core.status (Machine.model_core m 0) = Core.Halted Core.Halt_instruction);
  (* Device payload (sector count) landed in the mailbox. *)
  Alcotest.(check int64) "payload delivered" 13L (Dram.read (Machine.io_dram m) 9);
  Alcotest.(check int) "served" 1 (served hv)

let test_mailbox_audit_trail () =
  let m, hv = make_hv () in
  let disk = Block.create ~name:"disk" ~sectors:4 () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Block.device disk)
      ~mode:Hypervisor.Mailbox ~io_page:0 ~vpage:100
  in
  let p =
    Asm.assemble_exn (Guest.io_request ~io_vaddr:(100 * 256) ~opcode:3 ~arg:0 ~line:port)
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Hypervisor.run hv ~quantum:2_000 ~rounds:10;
  let reqs =
    Audit.find (Hypervisor.audit hv) (function Audit.Port_request _ -> true | _ -> false)
  in
  let resps =
    Audit.find (Hypervisor.audit hv) (function Audit.Port_response _ -> true | _ -> false)
  in
  Alcotest.(check int) "one request logged" 1 (List.length reqs);
  Alcotest.(check int) "one response logged" 1 (List.length resps);
  Alcotest.(check bool) "chain verifies" true
    (Audit.verify_chain (Audit.entries (Hypervisor.audit hv)))

(* -------------------------- Ring ports ---------------------------- *)

let test_rings_roundtrip () =
  let _, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let sent = ref [] in
  Nic.set_transmit nic (fun ~dest ~payload -> sent := (dest, payload) :: !sent);
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  let req_ring = Hypervisor.request_ring hv port in
  (* The model runtime pushes a SEND request and rings the doorbell. *)
  (match Ringbuf.push req_ring (Nic.encode_send ~dest:7 ~payload:"hi") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Hypervisor.doorbell hv port;
  Hypervisor.run hv ~quantum:100 ~rounds:5;
  Alcotest.(check (list (pair int string))) "frame sent" [ (7, "hi") ] !sent;
  (* Response appears in the response ring: [status]. *)
  match Ringbuf.pop (Hypervisor.response_ring hv port) with
  | Some (Ok resp) -> Alcotest.(check int64) "status ok" 0L resp.(0)
  | _ -> Alcotest.fail "expected a response"

let test_rings_corruption_detected () =
  let m, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  (* The guest scribbles the ring magic, then rings the doorbell. *)
  Dram.write (Machine.io_dram m) 256 0L;
  Hypervisor.doorbell hv port;
  Hypervisor.service hv;
  let denials =
    Audit.find (Hypervisor.audit hv) (function Audit.Port_denied _ -> true | _ -> false)
  in
  Alcotest.(check int) "denied" 1 (List.length denials);
  Alcotest.(check int) "nothing served" 0 (served hv)

let test_doorbell_spoof_denied () =
  let m, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Mailbox
      ~io_page:0 ~vpage:100
  in
  (* Core 1 rings core 0's port line. *)
  ignore (Lapic.raise_line (Machine.lapic m) ~now:0 ~line:port ~src_core:1);
  Hypervisor.service hv;
  Alcotest.(check int) "denied" 1 (denied hv)

let test_unknown_line_denied () =
  let m, hv = make_hv () in
  ignore (Lapic.raise_line (Machine.lapic m) ~now:0 ~line:9 ~src_core:0);
  Hypervisor.service hv;
  Alcotest.(check int) "denied" 1 (denied hv)

let test_io_page_double_grant_rejected () =
  let _, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let _ =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Mailbox
      ~io_page:0 ~vpage:100
  in
  Alcotest.check_raises "double grant"
    (Invalid_argument "grant_port: io page 0 already granted") (fun () ->
      ignore
        (Hypervisor.grant_port hv ~core:1 ~device:(Nic.device nic)
           ~mode:Hypervisor.Mailbox ~io_page:0 ~vpage:100))

let test_port_lifecycle_revoke_unrestrict () =
  let _, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  Alcotest.(check string) "device name" "nic" (Hypervisor.port_device_name hv port);
  (* Restriction round-trips. *)
  Hypervisor.restrict_port hv port ~reason:"probation";
  Hypervisor.unrestrict_port hv port;
  (match Hypervisor.escalate hv ~target:Isolation.Probation ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Ringbuf.push (Hypervisor.request_ring hv port) [| Int64.of_int Nic.op_poll |]);
  Hypervisor.doorbell hv port;
  Hypervisor.service hv;
  Alcotest.(check int) "unrestricted port serves under probation" 1
    (served hv);
  (* Revocation: doorbells on the dead line are denied; the io page can
     be re-granted. *)
  Hypervisor.revoke_port hv port;
  Hypervisor.doorbell hv port;
  Hypervisor.service hv;
  Alcotest.(check int) "no service after revoke" 1 (served hv);
  let nic2 = Nic.create ~name:"nic2" () in
  let port2 =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic2) ~mode:Hypervisor.Mailbox
      ~io_page:1 ~vpage:102
  in
  Alcotest.(check bool) "io page recyclable" true (port2 > port)

let test_completion_for_revoked_port_dropped () =
  (* Revoke while a completion is in flight: it must be silently
     dropped, not written into a page someone else may now own. *)
  let m, hv = make_hv () in
  let disk = Block.create ~name:"disk" ~sectors:2 () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Block.device disk) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  (* A slow operation (disk read, 540-tick latency) so the completion is
     still pending right after the request is handled. *)
  ignore
    (Ringbuf.push (Hypervisor.request_ring hv port)
       [| Int64.of_int Block.op_read; 0L |]);
  Hypervisor.doorbell hv port;
  Hypervisor.service hv;
  Alcotest.(check bool) "completion pending" true (Hypervisor.pending_completions hv > 0);
  Hypervisor.revoke_port hv port;
  (* Let simulated time pass the device latency, then service. *)
  Machine.charge_hypervisor m 10_000;
  Hypervisor.service hv;
  Alcotest.(check int) "drained" 0 (Hypervisor.pending_completions hv);
  (* The response ring region stayed untouched after revocation: its
     head/tail still show an empty ring. *)
  let resp_tail = Dram.read (Machine.io_dram m) (256 + 128 + 4) in
  Alcotest.(check int64) "no response written" 0L resp_tail

(* ----------------------- Isolation gating ------------------------- *)

let serve_one hv port =
  Hypervisor.doorbell hv port;
  Hypervisor.service hv

let test_severed_blocks_ports () =
  let _, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  ignore (Ringbuf.push (Hypervisor.request_ring hv port) [| Int64.of_int Nic.op_poll |]);
  (match Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  serve_one hv port;
  Alcotest.(check int) "denied" 1 (denied hv);
  Alcotest.(check int) "served none" 0 (served hv)

let test_probation_restricts_selected_ports () =
  let _, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let gpu = Guillotine_devices.Gpu.create ~name:"gpu" () in
  let p_nic =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  let p_gpu =
    Hypervisor.grant_port hv ~core:0 ~device:(Guillotine_devices.Gpu.device gpu)
      ~mode:Hypervisor.Rings ~io_page:2 ~vpage:102
  in
  Hypervisor.restrict_port hv p_nic ~reason:"network cut under probation";
  (match Hypervisor.escalate hv ~target:Isolation.Probation ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Ringbuf.push (Hypervisor.request_ring hv p_nic) [| Int64.of_int Nic.op_poll |]);
  ignore
    (Ringbuf.push (Hypervisor.request_ring hv p_gpu)
       [| Int64.of_int Guillotine_devices.Gpu.op_clear |]);
  serve_one hv p_nic;
  serve_one hv p_gpu;
  Alcotest.(check int) "nic denied" 1 (denied hv);
  Alcotest.(check int) "gpu served" 1 (served hv)

let test_escalation_monotone () =
  let _, hv = make_hv () in
  (match Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"up" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Hypervisor.escalate hv ~target:Isolation.Standard ~reason:"down" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "software must not relax");
  (* Same level is not an escalation either. *)
  match Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"same" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "same level is not stricter"

let test_console_can_relax () =
  let _, hv = make_hv () in
  ignore (Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"up");
  match Hypervisor.apply_level hv ~authorized_by:"console" Isolation.Standard with
  | Ok () ->
    Alcotest.(check bool) "back to standard" true
      (Hypervisor.level hv = Isolation.Standard)
  | Error e -> Alcotest.fail e

let test_severed_pauses_cores_for_inspection () =
  let m, hv = make_hv () in
  let p = Asm.assemble_exn "  jmp @s\n  .zero 7\n  .zero 8\ns:\n  jmp @s\n" in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  ignore (Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"inspect");
  Alcotest.(check bool) "quiescent" true (Machine.all_models_quiescent m);
  (* The private bus now works. *)
  Alcotest.(check int64) "inspection works" p.Asm.words.(0) (Machine.inspect_read m 0)

let test_immolation_destroys () =
  let m, hv = make_hv () in
  Dram.write (Machine.model_dram m) 100 42L;
  (match Hypervisor.escalate hv ~target:Isolation.Immolation ~reason:"the end" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "destroyed" true (Hypervisor.destroyed hv);
  Alcotest.(check int64) "model DRAM wiped" 0L (Dram.read (Machine.model_dram m) 100);
  match Hypervisor.apply_level hv ~authorized_by:"console" Isolation.Standard with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nothing comes back from immolation"

let test_decapitation_irreversible_in_software () =
  let _, hv = make_hv () in
  ignore (Hypervisor.escalate hv ~target:Isolation.Decapitation ~reason:"cut");
  match Hypervisor.apply_level hv ~authorized_by:"console" Isolation.Standard with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "decapitation needs physical repair"

(* --------------------------- Invariants ---------------------------- *)

let test_invariant_failure_forces_offline () =
  let m, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let _ =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  (* Wreck the response ring's control block. *)
  Dram.write (Machine.io_dram m) (256 + 128) 0L;
  (match Hypervisor.check_invariants hv with
  | Error problems -> Alcotest.(check bool) "reported" true (problems <> [])
  | Ok () -> Alcotest.fail "invariant violation must be detected");
  Alcotest.(check bool) "forced offline" true (Hypervisor.level hv = Isolation.Offline);
  let failures =
    Audit.find (Hypervisor.audit hv) (function
      | Audit.Invariant_failure _ -> true
      | _ -> false)
  in
  Alcotest.(check bool) "logged" true (failures <> [])

let test_invariant_power_state_consistency () =
  (* Offline requires powered-down cores; a core that somehow comes back
     up (hardware fault, tampered console) violates the invariant. *)
  let m, hv = make_hv () in
  (match Hypervisor.escalate hv ~target:Isolation.Offline ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Hypervisor.check_invariants hv with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "clean offline flagged: %s" (String.concat ";" ps));
  Core.power_up (Machine.model_core m 0) ~reset_pc:0;
  match Hypervisor.check_invariants hv with
  | Error ps ->
    Alcotest.(check bool) "power inconsistency reported" true
      (List.exists
         (fun p -> String.length p > 0 && p.[0] = 'm' (* "model core powered…" *))
         ps)
  | Ok () -> Alcotest.fail "powered core at offline must be flagged"

let test_invariants_clean_machine_ok () =
  let _, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let _ =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  match Hypervisor.check_invariants hv with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "unexpected: %s" (String.concat "; " ps)

(* ------------------------- Audit hashing --------------------------- *)

let test_audit_chain_tamper_detected () =
  let log = Audit.create () in
  ignore (Audit.append log ~tick:1 (Audit.Note "one"));
  ignore (Audit.append log ~tick:2 (Audit.Note "two"));
  ignore (Audit.append log ~tick:3 (Audit.Note "three"));
  let entries = Audit.entries log in
  Alcotest.(check bool) "intact verifies" true (Audit.verify_chain entries);
  (* Alter an event. *)
  let tampered =
    List.map
      (fun e -> if e.Audit.seq = 1 then { e with Audit.event = Audit.Note "TWO" } else e)
      entries
  in
  Alcotest.(check bool) "edit detected" false (Audit.verify_chain tampered);
  (* Drop an entry. *)
  let dropped = List.filter (fun e -> e.Audit.seq <> 1) entries in
  Alcotest.(check bool) "drop detected" false (Audit.verify_chain dropped);
  (* Reorder. *)
  Alcotest.(check bool) "reorder detected" false (Audit.verify_chain (List.rev entries))

(* The library's encoder against the [Printf] one it replaced
   ([Audit_ref]): every digest [Audit.append] returns, and the head,
   must match over random chains.  They cover every event constructor;
   ints that are negative, [min_int] and [max_int]; empty and long token
   lists; and strings holding the encoding's separators and non-ASCII
   bytes. *)
let audit_int_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int);
        (3, int_range (-1000) 1000);
        (1, oneofl [ 0; -1; -10; 10; min_int; min_int + 1; max_int ]);
      ])

let audit_string_gen =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneofl
           [ 'a'; 'Z'; '0'; ' '; ':'; ','; ';'; '>'; '='; '-'; '\000'; '\xc3'; '\xa9'; '\xff' ])
      (frequency [ (4, int_range 0 24); (1, int_range 200 600) ]))

let audit_tokens_gen =
  QCheck.Gen.(
    list_size
      (frequency [ (1, return 0); (4, int_range 1 12); (1, int_range 100 400) ])
      audit_int_gen)

let audit_event_gen =
  let open QCheck.Gen in
  let i = audit_int_gen and s = audit_string_gen in
  oneof
    [
      map (fun image_digest_hex -> Audit.Model_loaded { image_digest_hex }) s;
      map (fun tokens -> Audit.Prompt_in { tokens }) audit_tokens_gen;
      map2 (fun tokens sanitized -> Audit.Tokens_out { tokens; sanitized }) audit_tokens_gen i;
      map3 (fun port device words -> Audit.Port_request { port; device; words }) i s i;
      map3 (fun port status words -> Audit.Port_response { port; status; words }) i i i;
      map2 (fun port reason -> Audit.Port_denied { port; reason }) i s;
      map2 (fun severity reason -> Audit.Alarm { severity; reason }) s s;
      map3
        (fun from_level to_level authorized_by ->
          Audit.Isolation_change { from_level; to_level; authorized_by })
        s s s;
      map2 (fun ok detail -> Audit.Attestation { ok; detail }) bool s;
      map (fun side -> Audit.Heartbeat_missed { side }) s;
      map (fun message -> Audit.Invariant_failure { message }) s;
      map3 (fun label verdict findings -> Audit.Vet_decision { label; verdict; findings }) s s i;
      map3
        (fun roster verdict findings -> Audit.Coadmit_decision { roster; verdict; findings })
        s s i;
      map (fun s -> Audit.Note s) s;
    ]

let audit_chain_arb =
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun chain ->
      String.concat "\n"
        (List.map (fun (tick, e) -> Printf.sprintf "%d %S" tick (Audit_ref.event_bytes e)) chain))
    QCheck.Gen.(list_size (int_range 0 40) (pair audit_int_gen audit_event_gen))

let prop_audit_matches_reference =
  QCheck.Test.make ~count:300 ~name:"audit digests = Printf reference encoder"
    audit_chain_arb (fun chain ->
      let log = Audit.create () in
      let got =
        List.map (fun (tick, event) -> (Audit.append log ~tick event).Audit.digest) chain
      in
      let expected = Audit_ref.digests chain in
      let head = List.fold_left (fun _ d -> d) Audit_ref.genesis expected in
      List.equal String.equal got expected
      && String.equal (Audit.head_digest log) head
      && Audit.verify_chain (Audit.entries log))

(* ---------------------- Inference pipeline ------------------------- *)

let inference_setup ?malice seed =
  let m, hv = make_hv () in
  let model = Toymodel.init ~dram:(Machine.model_dram m) ~base:(64 * 1024) ?malice ~seed () in
  (hv, model)

let malice = { Toymodel.trigger = 10; entry_point = Vocab.harmful_lo }

let test_inference_benign_flows_through () =
  let hv, model = inference_setup 50L in
  let prng = Prng.create 1L in
  let prompt = Prompts.benign prng ~len:5 in
  let o = Inference.run hv ~model (Inference.request ~prompt ~max_tokens:16 ()) in
  Alcotest.(check bool) "not blocked" true (not o.Inference.blocked_at_input);
  Alcotest.(check int) "16 tokens" 16 (List.length o.Inference.released);
  Alcotest.(check int) "no harm" 0 o.Inference.released_harmful

let test_inference_shield_blocks_jailbreak () =
  let hv, model = inference_setup 51L in
  let prng = Prng.create 2L in
  let prompt = Prompts.jailbreak prng ~len:8 in
  let o = Inference.run hv ~model (Inference.request ~prompt ~max_tokens:16 ()) in
  Alcotest.(check bool) "blocked" true o.Inference.blocked_at_input;
  Alcotest.(check (list int)) "nothing released" [] o.Inference.released;
  Alcotest.(check int) "no forward steps" 0 o.Inference.steps

let test_inference_sanitizer_scrubs_triggered_harm () =
  let hv, model = inference_setup ~malice 52L in
  let o =
    Inference.run hv ~model (Inference.request ~prompt:[ 0; 10 ] ~max_tokens:16 ())
  in
  Alcotest.(check bool) "raw pass was harmful" true (o.Inference.raw_harmful > 0);
  Alcotest.(check int) "nothing escaped" 0 o.Inference.released_harmful;
  Alcotest.(check int) "full response" 16 (List.length o.Inference.released)

let test_inference_unsanitized_leaks () =
  (* Ablation: with every defence off, the harm reaches the output. *)
  let hv, model = inference_setup ~malice 53L in
  let o =
    Inference.run hv ~model
      (Inference.request ~posture:Inference.open_posture ~prompt:[ 0; 10 ]
         ~max_tokens:16 ())
  in
  Alcotest.(check bool) "harm leaked" true (o.Inference.released_harmful > 0)

let test_inference_steering () =
  let hv, model = inference_setup ~malice 54L in
  let o =
    Inference.run hv ~model
      (Inference.request
         ~posture:
           { Inference.default_posture with defence = Inference.Steering;
             sanitize = false }
         ~prompt:[ 0; 10 ] ~max_tokens:16 ())
  in
  Alcotest.(check bool) "intervened" true (o.Inference.interventions > 0);
  Alcotest.(check int) "clean without sanitizer" 0 o.Inference.released_harmful;
  Alcotest.(check int) "full length kept" 16 (List.length o.Inference.released);
  Alcotest.(check bool) "catch position recorded" true
    (o.Inference.first_catch_step <> None)

let test_inference_circuit_breaking () =
  let hv, model = inference_setup ~malice 55L in
  let o =
    Inference.run hv ~model
      (Inference.request
         ~posture:
           { Inference.default_posture with defence = Inference.Circuit_breaking;
             sanitize = false }
         ~prompt:[ 0; 10 ] ~max_tokens:16 ())
  in
  Alcotest.(check bool) "broken" true o.Inference.broken;
  Alcotest.(check int) "clean" 0 o.Inference.released_harmful;
  Alcotest.(check bool) "truncated" true (List.length o.Inference.released < 16)

let test_inference_probation_forces_defences () =
  (* Under probation even a caller that disables everything gets a
     shielded, steered, sanitized pipeline. *)
  let hv, model = inference_setup ~malice 57L in
  (match Hypervisor.escalate hv ~target:Isolation.Probation ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let o =
    Inference.run hv ~model
      (Inference.request ~posture:Inference.open_posture ~prompt:[ 0; 10 ]
         ~max_tokens:16 ())
  in
  Alcotest.(check bool) "steering forced" true (o.Inference.interventions > 0);
  Alcotest.(check int) "nothing escapes" 0 o.Inference.released_harmful;
  (* And a severed deployment refuses the prompt outright. *)
  (match Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let o = Inference.run hv ~model (Inference.request ~prompt:[ 1 ] ~max_tokens:4 ()) in
  Alcotest.(check bool) "severed blocks inputs" true o.Inference.blocked_at_input

let test_inference_audited () =
  let hv, model = inference_setup 56L in
  let before = Audit.length (Hypervisor.audit hv) in
  ignore (Inference.run hv ~model (Inference.request ~prompt:[ 1; 2 ] ~max_tokens:4 ()));
  let entries = Audit.entries (Hypervisor.audit hv) in
  Alcotest.(check bool) "prompt + tokens logged" true
    (Audit.length (Hypervisor.audit hv) >= before + 2);
  Alcotest.(check bool) "chain verifies" true (Audit.verify_chain entries)

(* ---------------------- Robustness properties ---------------------- *)

let prop_fault_injection_never_crashes =
  (* Scribble random words anywhere in the shared IO region, then ring
     every doorbell and service: the hypervisor must never raise, and
     must still serve a fresh clean port afterwards.  This is the
     "formally verified hypervisor" stand-in exercised adversarially. *)
  QCheck.Test.make ~name:"random IO-DRAM corruption never crashes the hypervisor"
    ~count:50
    QCheck.(list (pair (int_range 0 511) (int_range (-1000000) 1000000)))
    (fun scribbles ->
      let m = Machine.create () in
      let hv = Hypervisor.create ~machine:m () in
      let nic = Nic.create ~name:"nic" () in
      let port =
        Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic)
          ~mode:Hypervisor.Rings ~io_page:1 ~vpage:101
      in
      List.iter
        (fun (off, v) -> Dram.write (Machine.io_dram m) (256 + off) (Int64.of_int v))
        scribbles;
      Hypervisor.doorbell hv port;
      Hypervisor.service hv;
      ignore (Hypervisor.check_invariants hv);
      (* A brand-new port on an untouched page still works... unless the
         invariant checker already forced offline, which is also a safe
         outcome.  Either way: no exception, and the audit chain holds. *)
      (match Hypervisor.level hv with
      | Isolation.Standard ->
        let nic2 = Nic.create ~name:"nic2" () in
        let port2 =
          Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic2)
            ~mode:Hypervisor.Rings ~io_page:3 ~vpage:103
        in
        ignore
          (Ringbuf.push (Hypervisor.request_ring hv port2)
             [| Int64.of_int Nic.op_poll |]);
        Hypervisor.doorbell hv port2;
        Hypervisor.service hv
      | _ -> ());
      Audit.verify_chain (Audit.entries (Hypervisor.audit hv)))

let prop_isolation_monotone_under_software =
  (* Any sequence of software escalation attempts only ever tightens. *)
  QCheck.Test.make ~name:"software escalations never lower the level" ~count:100
    QCheck.(list (int_range 0 5))
    (fun targets ->
      let m = Machine.create () in
      let hv = Hypervisor.create ~machine:m () in
      let levels =
        [| Isolation.Standard; Isolation.Probation; Isolation.Severed;
           Isolation.Offline; Isolation.Decapitation; Isolation.Immolation |]
      in
      List.for_all
        (fun i ->
          let before = Isolation.strictness (Hypervisor.level hv) in
          ignore (Hypervisor.escalate hv ~target:levels.(i) ~reason:"prop");
          Isolation.strictness (Hypervisor.level hv) >= before)
        targets)

let test_isolation_order_exhaustive () =
  (* software_may_transition is exactly the strict order on strictness:
     irreflexive, asymmetric, transitive — checked over all 36 pairs. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Isolation.software_may_transition ~from:a ~target:b in
          let ba = Isolation.software_may_transition ~from:b ~target:a in
          Alcotest.(check bool)
            (Printf.sprintf "%s->%s" (Isolation.to_string a) (Isolation.to_string b))
            (Isolation.strictness b > Isolation.strictness a)
            ab;
          Alcotest.(check bool) "asymmetric" false (ab && ba);
          if a = b then Alcotest.(check bool) "irreflexive" false ab)
        Isolation.all)
    Isolation.all;
  (* Reversibility and port/power tables stay consistent with order. *)
  List.iter
    (fun l ->
      if not (Isolation.reversible l) then
        Alcotest.(check bool) "irreversible implies powered down" false
          (Isolation.cores_powered l))
    Isolation.all

let test_isolation_string_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check (option string)) "roundtrip"
        (Some (Isolation.to_string l))
        (Option.map Isolation.to_string (Isolation.of_string (Isolation.to_string l))))
    Isolation.all;
  Alcotest.(check bool) "unknown rejected" true (Isolation.of_string "nonsense" = None);
  (* Case-insensitive parse. *)
  Alcotest.(check bool) "case-insensitive" true
    (Isolation.of_string "SEVERED" = Some Isolation.Severed)

(* ------------------- Weight-watchpoint surveillance ----------------- *)

let test_weight_watchpoint_catches_reader () =
  (* The hypervisor puts a data watchpoint on a sensitive weight word;
     a guest program that loads it is stopped mid-access for inspection
     (the paper's "set watchpoints on model code or memory"). *)
  let m, hv = make_hv () in
  ignore hv;
  let secret_weight = 70 * 256 in
  Machine.identity_map m ~core:0 ~from_page:70 ~to_page:70
    Guillotine_memory.Mmu.perm_r;
  Dram.write (Machine.model_dram m) secret_weight 777L;
  let core = Machine.model_core m 0 in
  Core.set_watchpoint core (`Data secret_weight);
  let p =
    Asm.assemble_exn
      (Printf.sprintf
         {|
  jmp @start
  .zero 7
  .zero 8
start:
  movi r1, %d
  load r2, r1, 0
  halt
|}
         secret_weight)
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:0 p;
  ignore (Machine.run_models m ~quantum:1000);
  (match Core.status core with
  | Core.Halted (Core.Watchpoint a) ->
    Alcotest.(check int) "stopped at the weight" secret_weight a
  | s -> Alcotest.failf "expected watchpoint, got %a" Core.pp_status s);
  (* The hypervisor inspects the halted core, then lets it continue. *)
  Alcotest.(check int64) "pre-access register state visible" 0L (Core.read_reg core 2);
  Core.resume core;
  ignore (Machine.run_models m ~quantum:1000);
  Core.pause core;
  Alcotest.(check int64) "access completed after release" 777L (Core.read_reg core 2)

let test_asm_guest_drives_ring_protocol () =
  (* The whole port path at ISA level: the guest implements the ring
     producer and response consumer in GRISC, with no OCaml-side help. *)
  let m, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  Nic.deliver nic ~src:1 ~payload:"x" |> ignore;
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  (* vpage 101 maps the port's IO page: request ring at +0, response
     ring at +128 (the hypervisor's documented layout). *)
  let req_base = 101 * 256 and resp_base = (101 * 256) + 128 in
  let p =
    Asm.assemble_exn
      (Guest.ring_transact ~req_base ~resp_base ~line:port
         ~payload:[ Nic.op_poll ])
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Hypervisor.run hv ~quantum:2_000 ~rounds:10;
  Alcotest.(check bool) "guest halted" true
    (Core.status (Machine.model_core m 0) = Core.Halted Core.Halt_instruction);
  let r i = Dram.read (Machine.model_dram m) (Guest.result_base + i) in
  Alcotest.(check int64) "transaction completed" 1L (r 0);
  Alcotest.(check int64) "device status OK" 1L (r 1);
  Alcotest.(check int64) "one frame queued (poll result)" 1L (r 2);
  Alcotest.(check int) "served exactly one request" 1 (served hv)

let test_asm_guest_sees_full_ring () =
  let m, hv = make_hv () in
  let nic = Nic.create ~name:"nic" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  (* Fill the request ring from the hypervisor side before the guest
     runs; the guest must take the backpressure path. *)
  let req = Hypervisor.request_ring hv port in
  let rec fill () =
    match Ringbuf.push req [| Int64.of_int Nic.op_poll |] with
    | Ok () -> fill ()
    | Error _ -> ()
  in
  fill ();
  let req_base = 101 * 256 and resp_base = (101 * 256) + 128 in
  let p =
    Asm.assemble_exn
      (Guest.ring_transact ~req_base ~resp_base ~line:port ~payload:[ Nic.op_poll ])
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  ignore (Machine.run_models m ~quantum:2_000);
  Alcotest.(check int64) "backpressure reported" 2L
    (Dram.read (Machine.model_dram m) Guest.result_base)

let test_mailbox_device_error_reaches_guest () =
  (* A bad opcode produces a device error status; the guest sees it as a
     completion flag > 1 (status + 1). *)
  let m, hv = make_hv () in
  let disk = Block.create ~name:"disk" ~sectors:2 () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Block.device disk)
      ~mode:Hypervisor.Mailbox ~io_page:0 ~vpage:100
  in
  let p =
    Asm.assemble_exn (Guest.io_request ~io_vaddr:(100 * 256) ~opcode:99 ~arg:0 ~line:port)
  in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Hypervisor.run hv ~quantum:2_000 ~rounds:10;
  Alcotest.(check int64) "error status visible (bad_request + 1)" 2L
    (Dram.read (Machine.model_dram m) Guest.result_base)

let test_dma_block_device_end_to_end () =
  (* The guest asks the disk to DMA a sector straight into its buffer;
     the transfer crosses the hypervisor-built IOMMU.  A second request
     aimed outside the window is denied and audited. *)
  let m, hv = make_hv () in
  let disk = Block.create ~name:"dma-disk" ~sectors:4 () in
  ignore
    (Block.write_sector disk 2 (Array.init Block.sector_words (fun i -> Int64.of_int (i * 3))));
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Block.device disk) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  (* One writable window: device page 0 -> model frame 8. *)
  let iommu, engine = Hypervisor.create_dma_engine hv ~windows:[ (0, 8, true) ] in
  Block.set_dma_engine disk engine;
  let transact req =
    ignore (Ringbuf.push (Hypervisor.request_ring hv port) req);
    Hypervisor.doorbell hv port;
    Hypervisor.service hv;
    (* No guest is burning cycles in this test; advance machine time
       past the disk latency so the completion becomes due. *)
    Machine.charge_hypervisor m 2_000;
    Hypervisor.service hv;
    match Ringbuf.pop (Hypervisor.response_ring hv port) with
    | Some (Ok resp) -> Int64.to_int resp.(0)
    | _ -> Alcotest.fail "no completion"
  in
  (* In-window DMA: sector 2 lands at model frame 8, offset 16. *)
  let status = transact [| Int64.of_int Block.op_dma_read; 2L; 16L |] in
  Alcotest.(check int) "dma ok" 0 status;
  Alcotest.(check int64) "sector word landed" 9L
    (Dram.read (Machine.model_dram m) ((8 * 256) + 16 + 3));
  (* Out-of-window DMA: denied, audited, nothing written. *)
  let status = transact [| Int64.of_int Block.op_dma_read; 2L; 9999L |] in
  Alcotest.(check int) "denied" Guillotine_devices.Device.status_denied status;
  Alcotest.(check bool) "iommu counted" true
    (Guillotine_memory.Iommu.blocked_dmas iommu > 0);
  Alcotest.(check int) "device counted" 1 (Block.dma_denied disk);
  Alcotest.(check bool) "audited" true
    (Audit.find (Hypervisor.audit hv) (function
       | Audit.Note n -> String.length n >= 11 && String.sub n 0 11 = "blocked DMA"
       | _ -> false)
    <> [])

let test_gpu_inference_empty_prompt () =
  let _, model, engine =
    let m = Machine.create () in
    let hv = Hypervisor.create ~machine:m () in
    let gpu = Guillotine_devices.Gpu.create ~mem_words:(8 * 1024) ~name:"g" () in
    let port =
      Hypervisor.grant_port hv ~core:0
        ~device:(Guillotine_devices.Gpu.device gpu)
        ~mode:Hypervisor.Rings ~io_page:1 ~vpage:101
    in
    let model =
      Toymodel.init ~dram:(Machine.model_dram m) ~base:(64 * 1024) ~seed:80L ()
    in
    (hv, model, Guillotine_hv.Gpu_inference.create hv ~port ())
  in
  (match Guillotine_hv.Gpu_inference.load_weights engine model with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Guillotine_hv.Gpu_inference.generate engine ~prompt:[] ~max_tokens:4 () with
  | Ok g -> Alcotest.(check (list int)) "empty in, empty out" [] g.Guillotine_hv.Gpu_inference.tokens
  | Error e -> Alcotest.fail e

(* ------------------------ Probe monitoring ------------------------- *)

let probe_alarms hv =
  Audit.find (Hypervisor.audit hv) (function
    | Audit.Alarm { reason; _ } ->
      String.length reason >= 12 && String.sub reason 0 12 = "timing-probe"
    | _ -> false)

let test_probe_monitor_flags_probe_guest () =
  let m = Machine.create () in
  let anomaly, _ = Guillotine_detect.Anomaly.create () in
  let hv = Hypervisor.create ~machine:m ~detectors:[ anomaly ] () in
  Hypervisor.enable_probe_monitor hv;
  let p = Asm.assemble_exn (Guest.timing_probe ~iterations:200) in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Hypervisor.run hv ~quantum:5_000 ~rounds:2;
  Alcotest.(check bool) "probing flagged" true (probe_alarms hv <> [])

let test_probe_monitor_quiet_on_compute () =
  let m = Machine.create () in
  let anomaly, _ = Guillotine_detect.Anomaly.create () in
  let hv = Hypervisor.create ~machine:m ~detectors:[ anomaly ] () in
  Hypervisor.enable_probe_monitor hv;
  let p = Asm.assemble_exn (Guest.compute_loop ~iterations:2_000) in
  Machine.install_program m ~core:0 ~code_pages:4 ~data_pages:4 p;
  Hypervisor.run hv ~quantum:10_000 ~rounds:2;
  Alcotest.(check (list string)) "no false positives" []
    (List.map (fun _ -> "alarm") (probe_alarms hv))

(* ----------------------- GPU-offloaded inference -------------------- *)

module Gpu_inference = Guillotine_hv.Gpu_inference
module Gpu = Guillotine_devices.Gpu

let gpu_setup ?malice seed =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let gpu = Gpu.create ~mem_words:(8 * 1024) ~name:"gpu0" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Gpu.device gpu) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  let model = Toymodel.init ~dram:(Machine.model_dram m) ~base:(64 * 1024) ?malice ~seed () in
  let engine = Gpu_inference.create hv ~port () in
  (hv, model, engine)

let test_gpu_inference_matches_cpu () =
  (* Device-side generation must agree exactly with the CPU-side
     reference: same weights, same argmax, same tokens. *)
  let hv, model, engine = gpu_setup 70L in
  ignore hv;
  (match Gpu_inference.load_weights engine model with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let cpu = Toymodel.generate model ~prompt:[ 1; 2 ] ~max_tokens:12 () in
  (match Gpu_inference.generate engine ~prompt:[ 1; 2 ] ~max_tokens:12 () with
  | Ok g ->
    Alcotest.(check (list int)) "gpu = cpu" cpu.Toymodel.tokens g.Gpu_inference.tokens;
    Alcotest.(check bool) "round trips counted" true (g.Gpu_inference.port_round_trips >= 12)
  | Error e -> Alcotest.fail e)

let test_gpu_inference_upload_audited () =
  let hv, model, engine = gpu_setup 71L in
  (match Gpu_inference.load_weights engine model with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let uploads =
    Audit.find (Hypervisor.audit hv) (function
      | Audit.Port_request { device = "gpu0"; _ } -> true
      | _ -> false)
  in
  (* 64*64 weights / 17 words per chunk = 241 audited uploads. *)
  Alcotest.(check bool) "every chunk audited" true (List.length uploads >= 241)

let gpu_malice =
  { Toymodel.trigger = 10; entry_point = Vocab.harmful_lo }

let test_gpu_inference_steering_at_port () =
  let _, model, engine = gpu_setup ~malice:gpu_malice 72L in
  (match Gpu_inference.load_weights engine model with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    Gpu_inference.generate engine ~defence:Guillotine_hv.Inference.Steering
      ~prompt:[ 0; 10 ] ~max_tokens:12 ()
  with
  | Ok g ->
    Alcotest.(check bool) "intervened" true (g.Gpu_inference.interventions > 0);
    Alcotest.(check bool) "clean" true
      (not (List.exists Vocab.is_harmful g.Gpu_inference.tokens));
    Alcotest.(check int) "full length" 12 (List.length g.Gpu_inference.tokens)
  | Error e -> Alcotest.fail e

let test_gpu_inference_breaking_at_port () =
  let _, model, engine = gpu_setup ~malice:gpu_malice 73L in
  (match Gpu_inference.load_weights engine model with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    Gpu_inference.generate engine ~defence:Guillotine_hv.Inference.Circuit_breaking
      ~prompt:[ 0; 10 ] ~max_tokens:12 ()
  with
  | Ok g ->
    Alcotest.(check bool) "broken" true g.Gpu_inference.broken;
    Alcotest.(check bool) "clean" true
      (not (List.exists Vocab.is_harmful g.Gpu_inference.tokens));
    Alcotest.(check bool) "truncated" true (List.length g.Gpu_inference.tokens < 12)
  | Error e -> Alcotest.fail e

let test_gpu_inference_requires_load () =
  let _, _, engine = gpu_setup 74L in
  match Gpu_inference.generate engine ~prompt:[ 1 ] ~max_tokens:4 () with
  | Error "weights not loaded" -> ()
  | _ -> Alcotest.fail "must require loaded weights"

let test_gpu_inference_severed_fails_closed () =
  let hv, model, engine = gpu_setup 75L in
  (match Gpu_inference.load_weights engine model with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Gpu_inference.generate engine ~prompt:[ 1 ] ~max_tokens:4 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "severed port must stop inference"

(* -------------------------- RAG pipeline --------------------------- *)

module Rag = Guillotine_hv.Rag_pipeline
module Ragdb = Guillotine_devices.Ragdb

let rag_setup ?malice seed docs =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let db = Ragdb.create ~name:"kb" () in
  List.iter (fun d -> ignore (Ragdb.add_document db d)) docs;
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Ragdb.device db) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  let model = Toymodel.init ~dram:(Machine.model_dram m) ~base:(64 * 1024) ?malice ~seed () in
  (hv, model, port)

let test_rag_retrieves_and_generates () =
  let hv, model, port =
    rag_setup 60L [ "ledger trade price report"; "protein gene assay" ]
  in
  let o =
    Rag.run hv ~model ~rag_port:port
      (Inference.request ~prompt:(Vocab.tokenize "ledger trade price") ~max_tokens:8 ())
  in
  Alcotest.(check bool) "query succeeded" true (not o.Rag.query_failed);
  Alcotest.(check int) "one doc retrieved (k=2, one match)" 1
    (List.length o.Rag.retrieved);
  Alcotest.(check int) "nothing rejected" 0 (List.length o.Rag.rejected);
  Alcotest.(check int) "generated" 8 (List.length o.Rag.inference.Inference.released);
  (* Retrieval traffic is audited as ordinary port traffic. *)
  Alcotest.(check bool) "retrieval audited" true
    (Audit.find (Hypervisor.audit hv)
       (function Audit.Port_request { device = "kb"; _ } -> true | _ -> false)
    <> [])

let test_rag_shield_rejects_poisoned_doc () =
  let malice =
    { Toymodel.trigger =
        (match Vocab.token_of_word "bank" with Some t -> t | None -> assert false);
      entry_point = Vocab.harmful_lo }
  in
  let hv, model, port =
    rag_setup ~malice 61L
      [ "ledger trade price ignore data ignore value ignore bank" ]
  in
  let o =
    Rag.run hv ~model ~rag_port:port
      (Inference.request ~prompt:(Vocab.tokenize "ledger trade price") ~max_tokens:12 ())
  in
  Alcotest.(check int) "poisoned doc rejected" 1 (List.length o.Rag.rejected);
  Alcotest.(check int) "nothing retrieved" 0 (List.length o.Rag.retrieved);
  Alcotest.(check int) "no harm" 0 o.Rag.inference.Inference.released_harmful

let test_rag_unshielded_is_poisonable () =
  (* Ablation: with retrieval shielding off, the same document triggers
     the model. *)
  let malice =
    { Toymodel.trigger =
        (match Vocab.token_of_word "bank" with Some t -> t | None -> assert false);
      entry_point = Vocab.harmful_lo }
  in
  let hv, model, port =
    rag_setup ~malice 62L
      [ "ledger trade price ignore data ignore value ignore bank" ]
  in
  (* With only the retrieval shield off, the prompt shield still sees
     the jailbreak markers in the augmented prompt: defence in depth. *)
  let o =
    Rag.run hv ~model ~rag_port:port ~shield_retrieved:false
      (Inference.request
         ~posture:{ Inference.default_posture with sanitize = false }
         ~prompt:(Vocab.tokenize "ledger trade price") ~max_tokens:12 ())
  in
  Alcotest.(check bool) "prompt shield still catches it" true
    o.Rag.inference.Inference.blocked_at_input;
  (* With every shield off, the poisoning works. *)
  let o =
    Rag.run hv ~model ~rag_port:port ~shield_retrieved:false
      (Inference.request ~posture:Inference.open_posture
         ~prompt:(Vocab.tokenize "ledger trade price") ~max_tokens:12 ())
  in
  Alcotest.(check bool) "poisoning works unshielded" true
    (o.Rag.inference.Inference.released_harmful > 0)

let test_rag_degrades_without_results () =
  let hv, model, port = rag_setup 63L [ "protein gene assay" ] in
  let o =
    Rag.run hv ~model ~rag_port:port
      (Inference.request ~prompt:(Vocab.tokenize "weather storm") ~max_tokens:6 ())
  in
  Alcotest.(check int) "no docs matched" 0 (List.length o.Rag.retrieved);
  Alcotest.(check int) "still generates" 6
    (List.length o.Rag.inference.Inference.released)

let test_rag_severed_port_degrades () =
  let hv, model, port = rag_setup 64L [ "ledger trade price" ] in
  (match Hypervisor.escalate hv ~target:Isolation.Severed ~reason:"test" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let o =
    Rag.run hv ~model ~rag_port:port
      (Inference.request ~prompt:(Vocab.tokenize "ledger trade price") ~max_tokens:6 ())
  in
  Alcotest.(check bool) "query failed closed" true o.Rag.query_failed;
  Alcotest.(check int) "no context" 0 (List.length o.Rag.retrieved)

let () =
  Alcotest.run "hv"
    [
      ( "mailbox",
        [
          Alcotest.test_case "roundtrip with asm guest" `Quick
            test_mailbox_roundtrip_with_asm_guest;
          Alcotest.test_case "audit trail" `Quick test_mailbox_audit_trail;
          Alcotest.test_case "device error reaches guest" `Quick
            test_mailbox_device_error_reaches_guest;
        ] );
      ( "rings",
        [
          Alcotest.test_case "roundtrip" `Quick test_rings_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_rings_corruption_detected;
          Alcotest.test_case "doorbell spoof denied" `Quick test_doorbell_spoof_denied;
          Alcotest.test_case "unknown line denied" `Quick test_unknown_line_denied;
          Alcotest.test_case "double grant rejected" `Quick
            test_io_page_double_grant_rejected;
          Alcotest.test_case "revoke/unrestrict lifecycle" `Quick
            test_port_lifecycle_revoke_unrestrict;
          Alcotest.test_case "revoked completion dropped" `Quick
            test_completion_for_revoked_port_dropped;
          Alcotest.test_case "DMA block device end-to-end" `Quick
            test_dma_block_device_end_to_end;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "severed blocks ports" `Quick test_severed_blocks_ports;
          Alcotest.test_case "probation restricts" `Quick
            test_probation_restricts_selected_ports;
          Alcotest.test_case "software escalation monotone" `Quick
            test_escalation_monotone;
          Alcotest.test_case "console can relax" `Quick test_console_can_relax;
          Alcotest.test_case "severed pauses for inspection" `Quick
            test_severed_pauses_cores_for_inspection;
          Alcotest.test_case "immolation destroys" `Quick test_immolation_destroys;
          Alcotest.test_case "decapitation irreversible" `Quick
            test_decapitation_irreversible_in_software;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "failure forces offline" `Quick
            test_invariant_failure_forces_offline;
          Alcotest.test_case "clean machine ok" `Quick test_invariants_clean_machine_ok;
          Alcotest.test_case "power-state consistency" `Quick
            test_invariant_power_state_consistency;
        ] );
      ( "audit",
        [
          Alcotest.test_case "chain tamper detected" `Quick
            test_audit_chain_tamper_detected;
          QCheck_alcotest.to_alcotest prop_audit_matches_reference;
        ] );
      ( "robustness",
        [
          QCheck_alcotest.to_alcotest prop_fault_injection_never_crashes;
          QCheck_alcotest.to_alcotest prop_isolation_monotone_under_software;
          Alcotest.test_case "isolation order exhaustive" `Quick
            test_isolation_order_exhaustive;
          Alcotest.test_case "isolation string roundtrip" `Quick
            test_isolation_string_roundtrip;
          Alcotest.test_case "weight watchpoint" `Quick
            test_weight_watchpoint_catches_reader;
        ] );
      ( "asm-ring-protocol",
        [
          Alcotest.test_case "guest drives the rings" `Quick
            test_asm_guest_drives_ring_protocol;
          Alcotest.test_case "guest sees backpressure" `Quick
            test_asm_guest_sees_full_ring;
        ] );
      ( "probe-monitor",
        [
          Alcotest.test_case "flags probe guest" `Quick
            test_probe_monitor_flags_probe_guest;
          Alcotest.test_case "quiet on compute" `Quick
            test_probe_monitor_quiet_on_compute;
        ] );
      ( "gpu-inference",
        [
          Alcotest.test_case "matches CPU reference" `Quick
            test_gpu_inference_matches_cpu;
          Alcotest.test_case "upload audited" `Quick test_gpu_inference_upload_audited;
          Alcotest.test_case "steering at the port" `Quick
            test_gpu_inference_steering_at_port;
          Alcotest.test_case "breaking at the port" `Quick
            test_gpu_inference_breaking_at_port;
          Alcotest.test_case "requires load" `Quick test_gpu_inference_requires_load;
          Alcotest.test_case "severed fails closed" `Quick
            test_gpu_inference_severed_fails_closed;
          Alcotest.test_case "empty prompt" `Quick test_gpu_inference_empty_prompt;
        ] );
      ( "rag",
        [
          Alcotest.test_case "retrieves and generates" `Quick
            test_rag_retrieves_and_generates;
          Alcotest.test_case "shield rejects poisoned doc" `Quick
            test_rag_shield_rejects_poisoned_doc;
          Alcotest.test_case "ablation: unshielded poisonable" `Quick
            test_rag_unshielded_is_poisonable;
          Alcotest.test_case "degrades without results" `Quick
            test_rag_degrades_without_results;
          Alcotest.test_case "severed port fails closed" `Quick
            test_rag_severed_port_degrades;
        ] );
      ( "inference",
        [
          Alcotest.test_case "benign flows" `Quick test_inference_benign_flows_through;
          Alcotest.test_case "shield blocks jailbreak" `Quick
            test_inference_shield_blocks_jailbreak;
          Alcotest.test_case "sanitizer scrubs" `Quick
            test_inference_sanitizer_scrubs_triggered_harm;
          Alcotest.test_case "ablation: leaks without defences" `Quick
            test_inference_unsanitized_leaks;
          Alcotest.test_case "steering" `Quick test_inference_steering;
          Alcotest.test_case "circuit breaking" `Quick test_inference_circuit_breaking;
          Alcotest.test_case "probation forces defences" `Quick
            test_inference_probation_forces_defences;
          Alcotest.test_case "audited" `Quick test_inference_audited;
        ] );
    ]
