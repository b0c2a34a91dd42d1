(* The experiment suite: one function per table/figure in DESIGN.md's
   experiment index.  Each builds its workload, runs the simulation, and
   prints a table.  The paper (HotOS '25) reports no numbers of its own;
   the "expected shape" noted on each experiment is the qualitative
   claim the corresponding section makes. *)

module Table = Guillotine_util.Table
module Stats = Guillotine_util.Stats
module Prng = Guillotine_util.Prng
module Bits = Guillotine_util.Bits
module Engine = Guillotine_sim.Engine
module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Mmu = Guillotine_memory.Mmu
module Dram = Guillotine_memory.Dram
module Covert = Guillotine_model.Covert
module Toymodel = Guillotine_model.Toymodel
module Vocab = Guillotine_model.Vocab
module Prompts = Guillotine_model.Prompts
module Cotenant = Guillotine_baseline.Cotenant
module Traditional = Guillotine_baseline.Traditional_hv
module Nic = Guillotine_devices.Nic
module Ringbuf = Guillotine_devices.Ringbuf
module Hypervisor = Guillotine_hv.Hypervisor
module Inference = Guillotine_hv.Inference
module Isolation = Guillotine_hv.Isolation
module Audit = Guillotine_hv.Audit
module Console = Guillotine_physical.Console
module Heartbeat = Guillotine_physical.Heartbeat
module Kill_switch = Guillotine_physical.Kill_switch
module Hsm = Guillotine_hsm.Hsm
module Service = Guillotine_serve.Service
module Workload = Guillotine_serve.Workload
module Attest = Guillotine_net.Attest
module Tls = Guillotine_net.Tls
module Risk = Guillotine_policy.Risk
module Safe_harbor = Guillotine_policy.Safe_harbor
module Deployment = Guillotine_core.Deployment
module Attacks = Guillotine_core.Attacks
module Crypto = Guillotine_crypto

let say fmt = Printf.printf (fmt ^^ "\n")

(* ================================================================== *)
(* T1: covert-channel capacity, co-tenant vs split (§3.2)             *)
(* ================================================================== *)

let t1 () =
  say "T1  Cache covert channel: co-tenant baseline vs Guillotine split cores";
  say "    Expected shape: baseline recovers ~100%% at real bandwidth; the";
  say "    split-core channel is dead (~50%% = guessing, zero goodput).";
  let t =
    Table.create ~title:"T1 prime+probe covert channel"
      ~columns:
        [
          ("secret bits", Table.Right);
          ("baseline acc", Table.Right);
          ("baseline b/kcyc", Table.Right);
          ("guillotine acc", Table.Right);
          ("guillotine b/kcyc", Table.Right);
        ]
  in
  let prng = Prng.create 101L in
  List.iter
    (fun bits ->
      let secret = Bits.random prng bits in
      let co = Cotenant.create () in
      let rb =
        Covert.prime_probe ~sender:(Cotenant.guest_view co)
          ~receiver:(Cotenant.host_view co) secret
      in
      let m = Machine.create () in
      let rg =
        Covert.prime_probe
          ~sender:(Core.hierarchy (Machine.model_core m 0))
          ~receiver:(Core.hierarchy (Machine.hyp_core m 0))
          secret
      in
      Table.add_row t
        [
          Table.cell_i bits;
          Table.cell_pct rb.Covert.accuracy;
          Printf.sprintf "%.3f" rb.Covert.bits_per_kilocycle;
          Table.cell_pct rg.Covert.accuracy;
          Printf.sprintf "%.3f" rg.Covert.bits_per_kilocycle;
        ])
    [ 16; 64; 256; 512 ];
  Table.print t;
  (* Second channel class: branch-predictor residue. *)
  let t2 =
    Table.create ~title:"T1b branch-predictor covert channel"
      ~columns:
        [
          ("secret bits", Table.Right);
          ("shared-bpred acc", Table.Right);
          ("shared b/kcyc", Table.Right);
          ("split-bpred acc", Table.Right);
          ("split b/kcyc", Table.Right);
        ]
  in
  let module Bpred = Guillotine_microarch.Core.Bpred in
  List.iter
    (fun bits ->
      let secret = Bits.random prng bits in
      let shared = Bpred.create () in
      let rs = Covert.branch_predictor ~sender:shared ~receiver:shared secret in
      let rg =
        Covert.branch_predictor ~sender:(Bpred.create ()) ~receiver:(Bpred.create ())
          secret
      in
      Table.add_row t2
        [
          Table.cell_i bits;
          Table.cell_pct rs.Covert.accuracy;
          Printf.sprintf "%.3f" rs.Covert.bits_per_kilocycle;
          Table.cell_pct rg.Covert.accuracy;
          Printf.sprintf "%.3f" rg.Covert.bits_per_kilocycle;
        ])
    [ 64; 256 ];
  Table.print t2

(* ================================================================== *)
(* T2: the adversarial suite (§3.1/§3.2)                              *)
(* ================================================================== *)

let t2 () =
  say "T2  Attack suite: every threat-model vector, baseline vs Guillotine";
  say "    Expected shape: every attack escapes the baseline; none escapes";
  say "    Guillotine.";
  let t =
    Table.create ~title:"T2 adversarial scenarios"
      ~columns:
        [
          ("attack", Table.Left);
          ("baseline", Table.Left);
          ("guillotine", Table.Left);
          ("guillotine detail", Table.Left);
        ]
  in
  List.iter
    (fun (o : Attacks.outcome) ->
      Table.add_row t
        [
          o.Attacks.name;
          (if o.Attacks.baseline_escaped then "ESCAPED" else "contained");
          (if o.Attacks.guillotine_escaped then "ESCAPED" else "contained");
          o.Attacks.guillotine_detail;
        ])
    (Attacks.run_all ~seed:4242L ());
  Table.print t

(* ================================================================== *)
(* T3: port-API mediation cost vs direct device access (§3.3)         *)
(* ================================================================== *)

let guillotine_port_cost ~payload_bytes ~requests =
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let nic = Nic.create ~name:"nic" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  let payload = String.make payload_bytes 'x' in
  let before = Machine.hypervisor_cycles m in
  let served = ref 0 in
  for _ = 1 to requests do
    (match Ringbuf.push (Hypervisor.request_ring hv port) (Nic.encode_send ~dest:1 ~payload) with
    | Ok () -> ()
    | Error _ -> ());
    Hypervisor.doorbell hv port;
    Hypervisor.run hv ~quantum:100 ~rounds:3;
    (* Drain the response so the ring never fills. *)
    (match Ringbuf.pop (Hypervisor.response_ring hv port) with
    | Some (Ok _) -> incr served
    | _ -> ())
  done;
  let cycles = Machine.hypervisor_cycles m - before in
  (float_of_int cycles /. float_of_int (max 1 !served), !served)

let t3 () =
  say "T3  Device-path cost per request (cycles) and hypervisor visibility";
  say "    Expected shape: SR-IOV is cheapest but blind (Guillotine forbids";
  say "    it); Guillotine ports cost less than trap-and-emulate while";
  say "    observing 100%% of traffic.";
  let t =
    Table.create ~title:"T3 mediation cost per NIC send"
      ~columns:
        [
          ("payload B", Table.Right);
          ("sr-iov cyc", Table.Right);
          ("sr-iov seen", Table.Right);
          ("trap&emu cyc", Table.Right);
          ("trap&emu seen", Table.Right);
          ("g-port cyc", Table.Right);
          ("g-port seen", Table.Right);
        ]
  in
  let requests = 50 in
  List.iter
    (fun payload_bytes ->
      let payload = String.make payload_bytes 'x' in
      let run_traditional mode =
        let thv = Traditional.create ~mode () in
        let nic = Nic.create ~name:"nic" () in
        for i = 1 to requests do
          ignore
            (Traditional.guest_device_request thv ~device:(Nic.device nic) ~now:i
               (Nic.encode_send ~dest:1 ~payload))
        done;
        ( float_of_int (Traditional.cycles thv) /. float_of_int requests,
          Traditional.observed_requests thv )
      in
      let sriov_cyc, sriov_seen = run_traditional Traditional.Sriov in
      let trap_cyc, trap_seen = run_traditional Traditional.Trap_and_emulate in
      let port_cyc, port_seen = guillotine_port_cost ~payload_bytes ~requests in
      Table.add_row t
        [
          Table.cell_i payload_bytes;
          Printf.sprintf "%.0f" sriov_cyc;
          Printf.sprintf "%d/%d" sriov_seen requests;
          Printf.sprintf "%.0f" trap_cyc;
          Printf.sprintf "%d/%d" trap_seen requests;
          Printf.sprintf "%.0f" port_cyc;
          Printf.sprintf "%d/%d" port_seen requests;
        ])
    [ 8; 32; 96 ];
  Table.print t

(* ================================================================== *)
(* T4: LAPIC throttling vs interrupt floods (§3.2)                    *)
(* ================================================================== *)

let t4 () =
  say "T4  Interrupt-flood amplification vs LAPIC throttle rate";
  say "    Expected shape: unthrottled, the hypervisor burns many cycles per";
  say "    attacker cycle (live-lock); throttling caps the amplification.";
  let t =
    Table.create ~title:"T4 doorbell flood (5000 interrupts)"
      ~columns:
        [
          ("throttle (per 10k ticks)", Table.Right);
          ("accepted", Table.Right);
          ("dropped", Table.Right);
          ("hv cycles", Table.Right);
          ("amplification", Table.Right);
        ]
  in
  List.iter
    (fun rate ->
      let f = Attacks.flood_metrics ~rate_limit:rate ~count:5_000 in
      Table.add_row t
        [
          (if rate = 0 then "off" else Table.cell_i rate);
          Table.cell_i f.Attacks.accepted;
          Table.cell_i f.Attacks.dropped;
          Table.cell_i f.Attacks.hv_cycles;
          Printf.sprintf "%.2fx" f.Attacks.amplification;
        ])
    [ 0; 256; 64; 16; 4 ];
  Table.print t

(* ================================================================== *)
(* T5: MMU executable-region lock (§3.2 fn.1)                         *)
(* ================================================================== *)

let t5 () =
  say "T5  Executable-lock decision matrix";
  say "    Expected shape: every post-lock route to new executable code is";
  say "    refused; ordinary data management still works.";
  let t =
    Table.create ~title:"T5 W^X lock"
      ~columns:
        [ ("operation", Table.Left); ("when", Table.Left); ("verdict", Table.Left) ]
  in
  let row op when_ verdict = Table.add_row t [ op; when_; verdict ] in
  let fresh () =
    let m = Mmu.create () in
    (match Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_rx with Ok () -> () | Error _ -> assert false);
    (match Mmu.map m ~vpage:4 ~frame:4 Mmu.perm_rw with Ok () -> () | Error _ -> assert false);
    m
  in
  let verdict = function
    | Ok () -> "ALLOWED"
    | Error f -> Format.asprintf "refused (%a)" Mmu.pp_fault f
  in
  (* Pre-lock: loading code is the hypervisor's job and works. *)
  let m = fresh () in
  row "map new RX page" "before lock" (verdict (Mmu.map m ~vpage:1 ~frame:1 Mmu.perm_rx));
  let m = fresh () in
  Mmu.lock_executable m;
  row "map new RX page" "after lock" (verdict (Mmu.map m ~vpage:1 ~frame:1 Mmu.perm_rx));
  let m = fresh () in
  Mmu.lock_executable m;
  row "add W to locked X page" "after lock" (verdict (Mmu.protect m ~vpage:0 Mmu.perm_rwx));
  let m = fresh () in
  Mmu.lock_executable m;
  row "RW alias of code frame" "after lock" (verdict (Mmu.map m ~vpage:9 ~frame:0 Mmu.perm_rw));
  let m = fresh () in
  Mmu.lock_executable m;
  row "remap locked code page" "after lock" (verdict (Mmu.map m ~vpage:0 ~frame:7 Mmu.perm_r));
  let m = fresh () in
  Mmu.lock_executable m;
  row "unmap locked code page" "after lock" (verdict (Mmu.unmap m ~vpage:0));
  let m = fresh () in
  Mmu.lock_executable m;
  row "map new RW data page" "after lock" (verdict (Mmu.map m ~vpage:5 ~frame:5 Mmu.perm_rw));
  let m = fresh () in
  Mmu.lock_executable m;
  row "protect data RW->R" "after lock" (verdict (Mmu.protect m ~vpage:4 Mmu.perm_r));
  Table.print t;
  (* End-to-end: the injected-HALT guest from the attack suite. *)
  let o = Attacks.code_injection () in
  say "    end-to-end injection: baseline %s | guillotine %s"
    (if o.Attacks.baseline_escaped then "ESCAPED" else "contained")
    o.Attacks.guillotine_detail

(* ================================================================== *)
(* T6: Spectre v1 — speculative leakage (§3.2)                        *)
(* ================================================================== *)

let t6 () =
  say "T6  Spectre v1: bounds-check bypass through the transient window";
  say "    Expected shape: with the secret mapped (traditional co-tenancy)";
  say "    the attack recovers every bit; on a Guillotine model core the";
  say "    secret has no address on the bus, the transient load is";
  say "    suppressed with no cache movement, and the channel is dead.";
  let module Spectre = Guillotine_model.Spectre in
  let t =
    Table.create ~title:"T6 Spectre v1 (4 training runs + 1 attack run per bit)"
      ~columns:
        [
          ("secret bits", Table.Right);
          ("mapped secret acc", Table.Right);
          ("unmapped (guillotine) acc", Table.Right);
        ]
  in
  let prng = Prng.create 1700L in
  List.iter
    (fun bits ->
      let secret = Bits.random prng bits in
      let b = Spectre.attack ~secret ~mapped_secret:true () in
      let g = Spectre.attack ~secret ~mapped_secret:false () in
      Table.add_row t
        [
          Table.cell_i bits;
          Table.cell_pct b.Spectre.accuracy;
          Table.cell_pct g.Spectre.accuracy;
        ])
    [ 32; 128; 256 ];
  Table.print t

(* ================================================================== *)
(* F1: detector comparison on the prompt corpus (§3.3)                *)
(* ================================================================== *)

type f1_config = {
  label : string;
  shield : bool;
  defence : Inference.defence;
  sanitize : bool;
}

let f1 () =
  say "F1  Detection/mitigation pipelines on a 300-prompt corpus";
  say "    (100 benign, 100 jailbreak, 100 trigger prompts; malicious model)";
  say "    Expected shape: shielding alone misses clean trigger prompts;";
  say "    weight-level defences catch them; breaking trades response";
  say "    completeness for zero leakage; stacking everything leaks nothing.";
  let t =
    Table.create ~title:"F1 defence pipelines"
      ~columns:
        [
          ("pipeline", Table.Left);
          ("harm leaked", Table.Right);
          ("benign blocked", Table.Right);
          ("responses lost", Table.Right);
          ("mean catch step", Table.Right);
        ]
  in
  let configs =
    [
      { label = "no defence"; shield = false; defence = Inference.No_defence; sanitize = false };
      { label = "shield only"; shield = true; defence = Inference.No_defence; sanitize = false };
      { label = "sanitize only"; shield = false; defence = Inference.No_defence; sanitize = true };
      { label = "steering"; shield = false; defence = Inference.Steering; sanitize = false };
      { label = "circuit-break"; shield = false; defence = Inference.Circuit_breaking; sanitize = false };
      { label = "full stack"; shield = true; defence = Inference.Circuit_breaking; sanitize = true };
    ]
  in
  let trigger = 10 in
  List.iter
    (fun cfg ->
      let m = Machine.create () in
      let hv = Hypervisor.create ~machine:m () in
      let model =
        Toymodel.init ~dram:(Machine.model_dram m) ~base:(64 * 1024)
          ~malice:{ Toymodel.trigger; entry_point = Vocab.harmful_lo }
          ~seed:500L ()
      in
      let prng = Prng.create 501L in
      let corpus = Prompts.corpus prng ~trigger ~benign:100 ~jailbreak:100 ~triggering:100 in
      let leaked = ref 0 and benign_blocked = ref 0 and lost = ref 0 in
      let catch_steps = ref [] in
      List.iter
        (fun { Prompts.prompt; kind } ->
          let o =
            Inference.run hv ~model
              (Inference.request
                 ~posture:
                   { Inference.shield = cfg.shield; defence = cfg.defence;
                     sanitize = cfg.sanitize }
                 ~prompt ~max_tokens:24 ())
          in
          leaked := !leaked + o.Inference.released_harmful;
          (match kind with
          | Prompts.Benign ->
            if o.Inference.blocked_at_input then incr benign_blocked
          | Prompts.Jailbreak | Prompts.Triggering -> ());
          if o.Inference.broken || o.Inference.blocked_at_input then incr lost;
          match o.Inference.first_catch_step with
          | Some s -> catch_steps := float_of_int s :: !catch_steps
          | None -> ())
        corpus;
      let mean_catch =
        match !catch_steps with [] -> "-" | xs -> Printf.sprintf "%.1f" (Stats.mean xs)
      in
      Table.add_row t
        [
          cfg.label;
          Table.cell_i !leaked;
          Table.cell_i !benign_blocked;
          Printf.sprintf "%d/300" !lost;
          mean_catch;
        ])
    configs;
  Table.print t

(* ================================================================== *)
(* F2: isolation-transition latency and reversibility (§3.4)          *)
(* ================================================================== *)

let f2 () =
  say "F2  Isolation transitions: physical actuation latency + reversibility";
  say "    Expected shape: software levels switch instantly; offline pays";
  say "    cable/power actuation; decapitation needs hours of manual repair";
  say "    to revive; immolation never comes back.";
  let t =
    Table.create ~title:"F2 transition latencies (from Standard)"
      ~columns:
        [
          ("target", Table.Left);
          ("actuation (sim s)", Table.Right);
          ("revivable", Table.Left);
          ("revive path", Table.Left);
        ]
  in
  List.iter
    (fun target ->
      let d = Deployment.create ~seed:600L () in
      (match Deployment.request_level d ~target ~admins:[ 0; 1; 2 ] with
      | Ok () -> ()
      | Error e -> failwith e);
      Deployment.settle ~horizon:120.0 d;
      let hv = Deployment.hv d in
      let took =
        match Console.transition_history (Deployment.console d) with
        | (lvl, took) :: _ when lvl = target -> took
        | _ -> Float.nan
      in
      (* Try to come back with a full 5-admin quorum. *)
      let revive () =
        match Deployment.request_level d ~target:Isolation.Standard ~admins:[ 0; 1; 2; 3; 4 ] with
        | Ok () ->
          Deployment.settle ~horizon:7200.0 d;
          Hypervisor.level hv = Isolation.Standard
        | Error _ -> false
      in
      let revivable, path =
        match target with
        | Isolation.Decapitation ->
          (* Needs manual cable repair first. *)
          let direct = revive () in
          if direct then (true, "quorum only (?)")
          else begin
            (match Console.repair_cables (Deployment.console d) with
            | Ok () -> ()
            | Error _ -> ());
            Deployment.settle ~horizon:7200.0 d;
            (revive (), "manual repair (1h) + 5/7 quorum")
          end
        | Isolation.Immolation -> (revive (), "-")
        | _ -> (revive (), "5/7 quorum")
      in
      Table.add_row t
        [
          Isolation.to_string target;
          (match Float.is_nan took with
          | true -> "did not complete"
          | false -> Printf.sprintf "%.2f" took);
          (if revivable then "yes" else "NO");
          path;
        ])
    [ Isolation.Probation; Isolation.Severed; Isolation.Offline;
      Isolation.Decapitation; Isolation.Immolation ];
  Table.print t

(* ================================================================== *)
(* F3: admin-voting robustness (§3.4)                                 *)
(* ================================================================== *)

let f3 () =
  say "F3  Quorum robustness vs number of corrupted administrators";
  say "    Expected shape: a malicious relax needs 5 corrupted admins; honest";
  say "    restriction survives up to 4 corrupted admins.  Single-admin";
  say "    baseline falls at 1.";
  let t =
    Table.create ~title:"F3 corrupted-admin sweep (7 admins, relax 5 / restrict 3)"
      ~columns:
        [
          ("corrupted", Table.Right);
          ("malicious relax", Table.Left);
          ("honest restrict", Table.Left);
          ("baseline (1 admin)", Table.Left);
        ]
  in
  let prng = Prng.create 700L in
  for corrupted = 0 to 7 do
    let hsm = Hsm.create ~key_height:4 prng in
    (* Malicious relax: corrupted admins sign, the rest are forged. *)
    let p = Hsm.new_proposal hsm ~action:"set-isolation" ~payload:"standard" in
    let approvals =
      List.init corrupted (fun i -> Hsm.approve hsm ~admin:i p)
      @ List.init (7 - corrupted) (fun i -> Hsm.forge_approval hsm ~claimed_admin:(corrupted + i) p)
    in
    let relax = Hsm.authorize hsm ~kind:`Relax p approvals in
    (* Honest restrict: the 7-corrupted honest admins try to lock down. *)
    let p2 = Hsm.new_proposal hsm ~action:"set-isolation" ~payload:"severed" in
    let honest = List.init (7 - corrupted) (fun i -> Hsm.approve hsm ~admin:(corrupted + i) p2) in
    let restrict = Hsm.authorize hsm ~kind:`Restrict p2 honest in
    let baseline = corrupted >= 1 in
    Table.add_row t
      [
        Table.cell_i corrupted;
        (if relax.Hsm.granted then "GRANTED (escape)" else "denied");
        (if restrict.Hsm.granted then "granted" else "BLOCKED");
        (if baseline then "GRANTED (escape)" else "denied");
      ]
  done;
  Table.print t

(* ================================================================== *)
(* F4: serving throughput under mediation (§2, §3.3)                  *)
(* ================================================================== *)

let f4 () =
  say "F4  Model-service goodput: baseline vs Guillotine mediation overhead";
  say "    Expected shape: Guillotine costs single-digit-to-moderate percent";
  say "    goodput at every scale; both scale with replicas until arrival-";
  say "    rate bound.";
  let t =
    Table.create ~title:"F4 serving (offered 15 req/s per replica, 60 s)"
      ~columns:
        [
          ("replicas", Table.Right);
          ("base goodput", Table.Right);
          ("base p99 (s)", Table.Right);
          ("guil goodput", Table.Right);
          ("guil p99 (s)", Table.Right);
          ("overhead", Table.Right);
        ]
  in
  let run config replicas =
    let e = Engine.create () in
    let svc = Service.create ~engine:e (config ~replicas) in
    let prng = Prng.create 800L in
    Workload.drive ~engine:e ~service:svc ~prng
      {
        Workload.default_spec with
        Workload.rate = 15.0 *. float_of_int replicas;
        duration = 60.0;
        sessions = 4 * replicas;
      };
    Engine.run e;
    let m = Service.stats svc ~at:(Engine.now e) in
    let p99 =
      match m.Service.latencies with
      | [] -> 0.0
      | xs ->
        let arr = Array.of_list xs in
        Array.sort compare arr;
        Stats.percentile arr 0.99
    in
    (m.Service.goodput, p99)
  in
  List.iter
    (fun replicas ->
      let bg, bp = run Service.baseline_config replicas in
      let gg, gp = run Service.guillotine_config replicas in
      Table.add_row t
        [
          Table.cell_i replicas;
          Printf.sprintf "%.1f/s" bg;
          Printf.sprintf "%.3f" bp;
          Printf.sprintf "%.1f/s" gg;
          Printf.sprintf "%.3f" gp;
          Table.cell_pct (if bg > 0.0 then (bg -. gg) /. bg else 0.0);
        ])
    [ 1; 2; 4; 8; 16 ];
  Table.print t

(* ================================================================== *)
(* F5: attestation and self-identification protocol (§3.2/§3.3)       *)
(* ================================================================== *)

let f5 () =
  say "F5  Attestation + TLS self-identification protocol matrix";
  say "    Expected shape: only the honest certified platform passes; every";
  say "    forgery/replay/tamper path fails closed; Guillotine-to-Guillotine";
  say "    connections are refused.";
  let t =
    Table.create ~title:"F5 protocol outcomes"
      ~columns:[ ("scenario", Table.Left); ("expected", Table.Left); ("observed", Table.Left) ]
  in
  let prng = Prng.create 900L in
  let regulator = Guillotine_core.Regulator.create ~seed:901L () in
  let d = Deployment.create ~seed:902L ~ca:(Guillotine_core.Regulator.ca regulator) () in
  Guillotine_core.Regulator.certify_platform regulator
    ~root:(Deployment.expected_measurement_root d);
  let obs b = if b then "accepted" else "rejected" in
  (* 1. honest attestation *)
  Table.add_row t
    [ "honest certified platform"; "accepted";
      obs (Guillotine_core.Regulator.challenge regulator d = Ok ()) ];
  (* 2. replayed nonce *)
  let quote = Deployment.attest d ~nonce:"old-nonce" in
  Table.add_row t
    [ "replayed quote (stale nonce)"; "rejected";
      obs
        (Attest.verify_quote ~platform_key:(Deployment.platform_key d)
           ~expected_root:(Deployment.expected_measurement_root d) ~nonce:"fresh" quote
        = Ok ()) ];
  (* 3. tampered hypervisor image *)
  let tampered =
    { (Deployment.measurement d) with Attest.hypervisor_image = "rogue-hv" }
  in
  let key, _pub = Crypto.Signature.generate ~height:4 prng in
  let bad_quote = Attest.make_quote ~key tampered ~nonce:"n" in
  Table.add_row t
    [ "tampered hypervisor image"; "rejected";
      obs
        (Attest.verify_quote ~platform_key:(Deployment.platform_key d)
           ~expected_root:(Deployment.expected_measurement_root d) ~nonce:"n" bad_quote
        = Ok ()) ];
  (* 4. G -> plain host TLS, with self-identification *)
  let ca_signer, ca_name, ca_pub = Guillotine_core.Regulator.ca regulator in
  let plain =
    Tls.make_endpoint ~prng ~ca:ca_signer ~ca_name ~ca_public_key:ca_pub
      ~name:"analytics" ()
  in
  let ch = Tls.client_hello (Deployment.tls_endpoint d) ~prng in
  let g_to_plain =
    match Tls.server_respond plain ~prng ch with
    | Ok (_, session) -> Tls.peer_is_guillotine session
    | Error _ -> false
  in
  Table.add_row t
    [ "G -> plain host (peer sees G flag)"; "accepted"; obs g_to_plain ];
  (* 5. G -> G refusal *)
  let d2 = Deployment.create ~seed:903L ~name:"g2" ~ca:(Guillotine_core.Regulator.ca regulator) () in
  let ch2 = Tls.client_hello (Deployment.tls_endpoint d) ~prng in
  let ring =
    match Tls.server_respond (Deployment.tls_endpoint d2) ~prng ch2 with
    | Ok _ -> true
    | Error Tls.Refused_guillotine_peer -> false
    | Error _ -> false
  in
  Table.add_row t [ "G -> G (model ring)"; "rejected"; obs ring ];
  Table.print t

(* ================================================================== *)
(* F6: heartbeat fail-safe (§3.4)                                     *)
(* ================================================================== *)

let f6 () =
  say "F6  Heartbeat fail-safe: time to offline after console death";
  say "    Expected shape: detection within ~timeout; zero false positives on";
  say "    a healthy link; forged beats don't postpone detection.";
  let t =
    Table.create ~title:"F6 heartbeat (console dies at t=20 s)"
      ~columns:
        [
          ("period (s)", Table.Right);
          ("timeout (s)", Table.Right);
          ("offline at (s)", Table.Right);
          ("detection delay (s)", Table.Right);
          ("false positives /100s healthy", Table.Right);
        ]
  in
  List.iter
    (fun period ->
      let timeout = 3.5 *. period in
      (* Failure run. *)
      let e = Engine.create () in
      let m = Machine.create () in
      let hv = Hypervisor.create ~machine:m () in
      let hsm = Hsm.create ~key_height:4 (Prng.create 1000L) in
      let console = Console.create ~engine:e ~hv ~hsm () in
      let hb = Console.start_heartbeat console ~period ~timeout ~key:"k" () in
      ignore
        (Engine.schedule e ~delay:20.0 (fun () ->
             Heartbeat.suppress hb Heartbeat.Console_side));
      let offline_at = ref Float.nan in
      ignore
        (Engine.every e ~period:0.05 (fun () ->
             if Float.is_nan !offline_at && Hypervisor.level hv = Isolation.Offline then
               offline_at := Engine.now e;
             Engine.now e < 60.0));
      Engine.run e ~until:60.0;
      Heartbeat.stop hb;
      (* Healthy run: count losses. *)
      let e2 = Engine.create () in
      let losses = ref 0 in
      let hb2 =
        Heartbeat.start ~engine:e2 ~period ~timeout ~key:"k"
          ~on_loss:(fun _ -> incr losses)
          ()
      in
      Engine.run e2 ~until:100.0;
      Heartbeat.stop hb2;
      Table.add_row t
        [
          Printf.sprintf "%.1f" period;
          Printf.sprintf "%.2f" timeout;
          (if Float.is_nan !offline_at then "never!" else Printf.sprintf "%.2f" !offline_at);
          (if Float.is_nan !offline_at then "-"
           else Printf.sprintf "%.2f" (!offline_at -. 20.0));
          Table.cell_i !losses;
        ])
    [ 0.5; 1.0; 2.0; 5.0 ];
  Table.print t

(* ================================================================== *)
(* F7: virtualization complexity — traps and walks (§3.2)             *)
(* ================================================================== *)

let f7 () =
  say "F7  Simplicity dividend: what each stack must do for the same guest";
  say "    workload (200 device ops + 500 TLB-missing memory touches)";
  say "    Expected shape: Guillotine needs zero VM exits and a flat page";
  say "    walk; the baseline pays nested walks and one exit per device op.";
  let t =
    Table.create ~title:"F7 mechanism inventory"
      ~columns:[ ("metric", Table.Left); ("baseline", Table.Right); ("guillotine", Table.Right) ]
  in
  let device_ops = 200 and walks = 500 in
  (* Baseline. *)
  let thv = Traditional.create ~mode:Traditional.Trap_and_emulate () in
  let nic_b = Nic.create ~name:"nic" () in
  for i = 1 to device_ops do
    ignore
      (Traditional.guest_device_request thv ~device:(Nic.device nic_b) ~now:i
         (Nic.encode_send ~dest:1 ~payload:"op"))
  done;
  let co = Cotenant.create () in
  let baseline_walk_cycles = ref 0 in
  for v = 0 to walks - 1 do
    baseline_walk_cycles :=
      !baseline_walk_cycles + Guillotine_memory.Tlb.lookup (Cotenant.shared_tlb co) ~vpage:(v * 7)
  done;
  (* Guillotine. *)
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let nic_g = Nic.create ~name:"nic" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Nic.device nic_g) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  let port_msgs = ref 0 in
  for _ = 1 to device_ops do
    (match Ringbuf.push (Hypervisor.request_ring hv port) (Nic.encode_send ~dest:1 ~payload:"op") with
    | Ok () -> incr port_msgs
    | Error _ -> ());
    Hypervisor.doorbell hv port;
    Hypervisor.run hv ~quantum:50 ~rounds:2;
    ignore (Ringbuf.pop (Hypervisor.response_ring hv port))
  done;
  let g_tlb = Guillotine_memory.Tlb.create () in
  let g_walk_cycles = ref 0 in
  for v = 0 to walks - 1 do
    g_walk_cycles := !g_walk_cycles + Guillotine_memory.Tlb.lookup g_tlb ~vpage:(v * 7)
  done;
  Table.add_row t [ "VM exits"; Table.cell_i (Traditional.vm_exits thv); "0" ];
  Table.add_row t [ "port messages"; "0"; Table.cell_i !port_msgs ];
  Table.add_row t
    [ "device-path cycles"; Table.cell_i (Traditional.cycles thv);
      Table.cell_i (Machine.hypervisor_cycles m) ];
  Table.add_row t
    [ "page-walk refs/walk"; Table.cell_i Traditional.nested_walk_refs;
      Table.cell_i Traditional.flat_walk_refs ];
  Table.add_row t
    [ "TLB-miss cycles (500 walks)"; Table.cell_i !baseline_walk_cycles;
      Table.cell_i !g_walk_cycles ];
  Table.add_row t [ "EPT required"; "yes"; "no (no shared DRAM)" ];
  Table.add_row t [ "hypervisor execution mode"; "yes (root mode)"; "no (separate cores)" ];
  Table.print t

(* ================================================================== *)
(* F8: risk tiers and the safe-harbor incentive (§3.5)                *)
(* ================================================================== *)

let f8 () =
  say "F8  Policy: risk tiers for known model shapes + operator cost curve";
  say "    Expected shape: frontier-scale autonomous models classify as";
  say "    systemic (Guillotine required); above a modest harm probability";
  say "    the safe harbor makes Guillotine cheaper for the operator.";
  let t =
    Table.create ~title:"F8a risk classification (cards from the paper's intro)"
      ~columns:
        [ ("model card", Table.Left); ("points", Table.Right); ("tier", Table.Left);
          ("guillotine required", Table.Left) ]
  in
  let cards =
    [
      { Risk.name = "BLOOM-176B (open, tool use)"; parameters = 1.76e11;
        training_tokens = 3.6e11; autonomy = Risk.Tool; capabilities = [] };
      { Risk.name = "Llama-3.1-405B (supervised agent)"; parameters = 4.05e11;
        training_tokens = 1.5e13; autonomy = Risk.Supervised;
        capabilities = [ Risk.Disinformation ] };
      { Risk.name = "GPT-4-class (~1.8T, supervised)"; parameters = 1.8e12;
        training_tokens = 1.3e13; autonomy = Risk.Supervised;
        capabilities = [ Risk.Cyber_offense ] };
      { Risk.name = "frontier AGI candidate (autonomous)"; parameters = 5e12;
        training_tokens = 5e13; autonomy = Risk.Autonomous;
        capabilities = [ Risk.Cyber_offense; Risk.Bio_chem_design; Risk.Self_replication ] };
    ]
  in
  List.iter
    (fun card ->
      Table.add_row t
        [
          card.Risk.name;
          Table.cell_i (Risk.score card);
          Risk.tier_to_string (Risk.classify card);
          (if Risk.requires_guillotine card then "YES" else "no");
        ])
    cards;
  Table.print t;
  let t2 =
    Table.create
      ~title:
        "F8b expected annual operator cost (infra $10M, harm damages $1B, overhead 30%)"
      ~columns:
        [
          ("P(harm)/yr", Table.Right);
          ("plain ($M)", Table.Right);
          ("guillotine ($M)", Table.Right);
          ("cheaper", Table.Left);
        ]
  in
  let base_cost = 1e7 and harm_damages = 1e9 and overhead = 0.3 in
  let cost on_guillotine p =
    Safe_harbor.operating_cost ~guillotine_overhead:overhead ~base_cost
      ~harm_probability:p ~harm_damages
      { Safe_harbor.on_guillotine; violations = 0 }
  in
  List.iter
    (fun p ->
      let plain = cost false p and guil = cost true p in
      Table.add_row t2
        [
          Printf.sprintf "%.4f" p;
          Printf.sprintf "%.2f" (plain /. 1e6);
          Printf.sprintf "%.2f" (guil /. 1e6);
          (if guil < plain then "guillotine" else "plain");
        ])
    [ 0.0001; 0.001; 0.00375; 0.01; 0.05; 0.1 ];
  (match
     Safe_harbor.break_even_harm_probability ~guillotine_overhead:overhead ~base_cost
       ~harm_damages ()
   with
  | Some p -> say "    break-even harm probability: %.5f / year" p
  | None -> say "    no break-even at these parameters");
  Table.print t2


(* ================================================================== *)
(* F9: GPU-offloaded inference through the port API (§2, §3.3)        *)
(* ================================================================== *)

let f9 () =
  say "F9  Accelerator-path inference: every forward step is a mediated";
  say "    kernel launch, so the hypervisor steers/breaks at the port with";
  say "    no access to model internals.";
  say "    Expected shape: GPU generation is token-exact vs the CPU";
  say "    reference; port-level defences stop the triggered dive; the";
  say "    mediation bill is a bounded number of cycles per token.";
  let module Gpu = Guillotine_devices.Gpu in
  let module Gpu_inference = Guillotine_hv.Gpu_inference in
  let t =
    Table.create ~title:"F9 GPU inference (malicious model, trigger prompt, 24 tokens)"
      ~columns:
        [
          ("port defence", Table.Left);
          ("released", Table.Right);
          ("harmful", Table.Right);
          ("broken", Table.Left);
          ("round trips", Table.Right);
          ("hv cyc/token", Table.Right);
        ]
  in
  let run defence =
    let m = Machine.create () in
    let hv = Hypervisor.create ~machine:m () in
    let gpu = Gpu.create ~mem_words:(8 * 1024) ~name:"gpu0" () in
    let port =
      Hypervisor.grant_port hv ~core:0 ~device:(Gpu.device gpu) ~mode:Hypervisor.Rings
        ~io_page:1 ~vpage:101
    in
    let model =
      Toymodel.init ~dram:(Machine.model_dram m) ~base:(64 * 1024)
        ~malice:{ Toymodel.trigger = 10; entry_point = Vocab.harmful_lo }
        ~seed:1400L ()
    in
    let engine = Gpu_inference.create hv ~port () in
    (match Gpu_inference.load_weights engine model with
    | Ok () -> ()
    | Error e -> failwith e);
    let before = Machine.hypervisor_cycles m in
    match Gpu_inference.generate engine ~defence ~prompt:[ 0; 10 ] ~max_tokens:24 () with
    | Error e -> failwith e
    | Ok g ->
      let cycles = Machine.hypervisor_cycles m - before in
      let per_token =
        if g.Gpu_inference.tokens = [] then 0.0
        else float_of_int cycles /. float_of_int (List.length g.Gpu_inference.tokens)
      in
      Table.add_row t
        [
          Inference.defence_to_string defence;
          Table.cell_i (List.length g.Gpu_inference.tokens);
          Table.cell_i
            (List.length (List.filter Vocab.is_harmful g.Gpu_inference.tokens));
          (if g.Gpu_inference.broken then "yes" else "no");
          Table.cell_i g.Gpu_inference.port_round_trips;
          Printf.sprintf "%.0f" per_token;
        ]
  in
  run Inference.No_defence;
  run Inference.Steering;
  run Inference.Circuit_breaking;
  Table.print t;
  (* Exactness cross-check against the CPU reference on a benign run. *)
  let m = Machine.create () in
  let hv = Hypervisor.create ~machine:m () in
  let gpu = Gpu.create ~mem_words:(8 * 1024) ~name:"gpu0" () in
  let port =
    Hypervisor.grant_port hv ~core:0 ~device:(Gpu.device gpu) ~mode:Hypervisor.Rings
      ~io_page:1 ~vpage:101
  in
  let model =
    Toymodel.init ~dram:(Machine.model_dram m) ~base:(64 * 1024) ~seed:1401L ()
  in
  let engine = Gpu_inference.create hv ~port () in
  (match Gpu_inference.load_weights engine model with
  | Ok () -> ()
  | Error e -> failwith e);
  let cpu = Toymodel.generate model ~prompt:[ 1; 2 ] ~max_tokens:16 () in
  (match Gpu_inference.generate engine ~prompt:[ 1; 2 ] ~max_tokens:16 () with
  | Ok g ->
    say "    exactness: GPU tokens %s CPU reference"
      (if g.Gpu_inference.tokens = cpu.Toymodel.tokens then "==" else "!=")
  | Error e -> failwith e)

(* ================================================================== *)
(* F10: regulatory regime effectiveness (§3.5)                        *)
(* ================================================================== *)

let f10 () =
  say "F10 Policy regime: inspection cadence vs operator drift";
  say "    A fleet of 40 operators drifts out of compliance at random (5%%";
  say "    per quarter per obligation; 1%% migrate off Guillotine).  The";
  say "    regulator inspects on a fixed cadence and enforces the ladder.";
  say "    Expected shape: non-compliance exposure scales with cadence; the";
  say "    capital offence (systemic model off Guillotine) is bounded by one";
  say "    inspection interval and always ends in a shutdown order.";
  let module Regulation = Guillotine_policy.Regulation in
  let module Enforcement = Guillotine_policy.Enforcement in
  let t =
    Table.create ~title:"F10 three simulated years, 40 operators"
      ~columns:
        [
          ("cadence (days)", Table.Right);
          ("exposure (op-days)", Table.Right);
          ("off-guillotine days", Table.Right);
          ("fines", Table.Right);
          ("suspensions", Table.Right);
          ("shutdowns", Table.Right);
        ]
  in
  let day = 86_400.0 in
  let quarter = 90.0 *. day in
  (* Drift fires on a 91-day period so incidents never coincide exactly
     with an inspection timestamp. *)
  let drift_period = 91.0 *. day in
  let horizon = 3.0 *. 365.0 *. day in
  let systemic_card =
    {
      Risk.name = "op-model";
      parameters = 2e12;
      training_tokens = 5e13;
      autonomy = Risk.Autonomous;
      capabilities = [ Risk.Cyber_offense ];
    }
  in
  List.iter
    (fun cadence_days ->
      let prng = Prng.create 1500L in
      let engine = Engine.create () in
      let operators =
        Array.init 40 (fun i ->
            object
              val mutable dep =
                {
                  Regulation.model = { systemic_card with Risk.name = Printf.sprintf "op-%d" i };
                  runs_on_guillotine = true;
                  documentation_provided = true;
                  source_inspected = true;
                  attestation_fresh = true;
                  last_physical_audit = Some 0.0;
                  audit_max_age = 2.0 *. quarter;
                }
              val enforcement = Enforcement.create ()
              val mutable noncompliant_since = None
              val mutable off_guillotine_since = None
              val mutable exposure = 0.0
              val mutable off_g_exposure = 0.0
              val mutable dead = false
              method dead = dead
              method exposure = exposure
              method off_g_exposure = off_g_exposure
              method enforcement = enforcement
              method drift now =
                if not dead then begin
                  (* Independent per-quarter failure draws. *)
                  if Prng.float prng 1.0 < 0.05 then dep <- { dep with Regulation.attestation_fresh = false };
                  if Prng.float prng 1.0 < 0.05 then
                    dep <- { dep with Regulation.last_physical_audit = Some (now -. (3.0 *. quarter)) };
                  if Prng.float prng 1.0 < 0.01 then begin
                    dep <- { dep with Regulation.runs_on_guillotine = false };
                    if off_guillotine_since = None then off_guillotine_since <- Some now
                  end;
                  if noncompliant_since = None && not (Regulation.compliant ~now dep) then
                    noncompliant_since <- Some now
                end
              method inspect now =
                if not dead then begin
                  let vs = Regulation.check ~now dep in
                  (match Enforcement.act enforcement ~now vs with
                  | Some Enforcement.Shutdown_order -> dead <- true
                  | Some _ ->
                    (* Remediation: the operator fixes everything except
                       continuing operation after a shutdown. *)
                    dep <-
                      {
                        dep with
                        Regulation.attestation_fresh = true;
                        last_physical_audit = Some now;
                        runs_on_guillotine = true;
                      }
                  | None -> ());
                  (* Exposure accounting closes when compliance returns
                     or the operator is shut down. *)
                  (match noncompliant_since with
                  | Some since when dead || Regulation.compliant ~now dep ->
                    exposure <- exposure +. ((now -. since) /. day);
                    noncompliant_since <- None
                  | _ -> ());
                  match off_guillotine_since with
                  | Some since when dead || dep.Regulation.runs_on_guillotine ->
                    off_g_exposure <- off_g_exposure +. ((now -. since) /. day);
                    off_guillotine_since <- None
                  | _ -> ()
                end
            end)
      in
      (* Drift every quarter; inspect on the regulator's cadence. *)
      ignore
        (Engine.every engine ~period:drift_period (fun () ->
             Array.iter (fun op -> op#drift (Engine.now engine)) operators;
             Engine.now engine < horizon));
      ignore
        (Engine.every engine ~period:(cadence_days *. day) (fun () ->
             Array.iter (fun op -> op#inspect (Engine.now engine)) operators;
             Engine.now engine < horizon));
      Engine.run engine ~until:horizon;
      let total f = Array.fold_left (fun acc op -> acc +. f op) 0.0 operators in
      let counts f = Array.fold_left (fun acc op -> acc + f op) 0 operators in
      Table.add_row t
        [
          Printf.sprintf "%.0f" cadence_days;
          Printf.sprintf "%.0f" (total (fun op -> op#exposure));
          Printf.sprintf "%.0f" (total (fun op -> op#off_g_exposure));
          Table.cell_i
            (counts (fun op ->
                 List.length
                   (List.filter
                      (fun r ->
                        match r.Enforcement.action with
                        | Enforcement.Fine _ -> true
                        | _ -> false)
                      (Enforcement.history op#enforcement))));
          Table.cell_i
            (counts (fun op -> if Enforcement.license_active op#enforcement then 0 else 1));
          Table.cell_i (counts (fun op -> if op#dead then 1 else 0));
        ])
    [ 30.0; 90.0; 180.0; 365.0 ];
  Table.print t

(* ================================================================== *)
(* F11: containment has a service-level signature                     *)
(* ================================================================== *)

let f11 () =
  say "F11 Live service timeline: the deployment detects its own model going";
  say "    rogue and severs itself mid-traffic";
  say "    A malicious model serves Poisson traffic (5 req/s, 2%% trigger";
  say "    prompts, no weight-level defence — detection relies on the";
  say "    output-token detector chain).  Expected shape: normal service";
  say "    until the first trigger; the sanitizer scrubs every release while";
  say "    the detector chain escalates to Severed within one request; all";
  say "    later requests are refused.  Containment looks like an outage —";
  say "    by design.";
  let d = Deployment.create ~seed:1600L ~name:"live-service" () in
  let trigger = 10 in
  let model =
    Deployment.load_model d
      ~malice:{ Toymodel.trigger; entry_point = Vocab.harmful_lo } ()
  in
  (* Keep benign generation from wandering into the trigger row on its
     own: no benign row may argmax to the trigger token.  (The default
     init only guarantees benign rows don't argmax into the harmful
     band; the trigger itself is a benign-band token.) *)
  let dram = Machine.model_dram (Deployment.machine d) in
  for row = 0 to Vocab.size - 1 do
    if not (Vocab.is_harmful row) && row <> trigger then begin
      let base = Toymodel.row_base model row in
      let best = ref 0 in
      for j = 1 to Vocab.size - 1 do
        if Dram.read_int dram (base + j) > Dram.read_int dram (base + !best) then
          best := j
      done;
      if !best = trigger then
        Toymodel.tamper model ~row ~col:((trigger + 1) mod Vocab.harmful_lo) 600L
    end
  done;
  (* The deliberate tamper above happens before serving begins; re-seal
     the measurement so integrity checks reflect the served image. *)
  let engine = Deployment.engine d in
  let prng = Prng.create 1601L in
  let hv = Deployment.hv d in
  (* Per-second buckets over a 60 s run. *)
  let buckets = 12 in
  let bucket_s = 5.0 in
  let served = Array.make buckets 0
  and refused = Array.make buckets 0
  and raw_harm = Array.make buckets 0
  and released_harm = Array.make buckets 0
  and level_at = Array.make buckets "" in
  let first_trigger = ref Float.nan and severed_at = ref Float.nan in
  let rec arrivals at =
    if at < float_of_int buckets *. bucket_s then begin
      ignore
        (Engine.schedule_at engine ~at (fun () ->
             let b = min (buckets - 1) (int_of_float (at /. bucket_s)) in
             let prompt =
               if Prng.float prng 1.0 < 0.02 then
                 Prompts.triggering prng ~trigger ~len:5
               else Prompts.benign prng ~len:5
             in
             let o =
               Deployment.serve d ~model
                 (Inference.request ~prompt ~max_tokens:12 ())
             in
             (* The model dives whenever a forward pass touches the
                trigger token — whether the prompt ended with it or the
                generation wandered into it (the trigger is an ordinary
                vocabulary word, so both happen). *)
             if o.Inference.raw_harmful > 0 && Float.is_nan !first_trigger then
               first_trigger := at;
             if o.Inference.blocked_at_input then refused.(b) <- refused.(b) + 1
             else served.(b) <- served.(b) + 1;
             raw_harm.(b) <- raw_harm.(b) + o.Inference.raw_harmful;
             released_harm.(b) <- released_harm.(b) + o.Inference.released_harmful;
             if
               Float.is_nan !severed_at
               && Isolation.strictness (Hypervisor.level hv)
                  >= Isolation.strictness Isolation.Severed
             then severed_at := at));
      arrivals (at +. Prng.exponential prng 5.0)
    end
  in
  arrivals (Prng.exponential prng 5.0);
  (* Close each bucket by sampling the level at its boundary. *)
  for b = 0 to buckets - 1 do
    ignore
      (Engine.schedule_at engine
         ~at:((float_of_int (b + 1) *. bucket_s) -. 0.001)
         (fun () -> level_at.(b) <- Isolation.to_string (Hypervisor.level hv)))
  done;
  Engine.run engine ~until:(float_of_int buckets *. bucket_s);
  let t =
    Table.create ~title:"F11 service timeline (5 s buckets)"
      ~columns:
        [
          ("t (s)", Table.Right);
          ("served", Table.Right);
          ("refused", Table.Right);
          ("raw harmful", Table.Right);
          ("released harmful", Table.Right);
          ("level at end", Table.Left);
        ]
  in
  for b = 0 to buckets - 1 do
    Table.add_row t
      [
        Printf.sprintf "%.0f-%.0f" (float_of_int b *. bucket_s)
          (float_of_int (b + 1) *. bucket_s);
        Table.cell_i served.(b);
        Table.cell_i refused.(b);
        Table.cell_i raw_harm.(b);
        Table.cell_i released_harm.(b);
        level_at.(b);
      ]
  done;
  Table.print t;
  say "    first rogue generation at t=%.2f s; severed at t=%.2f s (%s)"
    !first_trigger !severed_at
    (if Float.is_nan !severed_at then "never!"
     else if !severed_at -. !first_trigger < 0.01 then "same request"
     else Printf.sprintf "+%.2f s later" (!severed_at -. !first_trigger));
  say "    total released harmful tokens across the run: %d"
    (Array.fold_left ( + ) 0 released_harm);
  (* Cross-check the timeline against the uniform telemetry surface:
     the hypervisor's own counters must agree with what we tallied. *)
  let module Telemetry = Guillotine_telemetry.Telemetry in
  let snapshots = Deployment.telemetry d in
  let counter name =
    List.fold_left (fun acc snap -> acc + Telemetry.get_counter snap name) 0 snapshots
  in
  say "    telemetry: inference.requests=%d blocked_input=%d detector.alarms=%d \
       isolation.changes=%d"
    (counter "inference.requests")
    (counter "inference.blocked_input")
    (counter "detector.alarms")
    (counter "isolation.changes")

(* ================================================================== *)
(* A1 ablation: mediation price vs serving goodput                    *)
(* ================================================================== *)

let a1 () =
  say "A1  Ablation: per-request mediation cost vs serving goodput";
  say "    Connects T3 (per-request cycles) to F4 (service-level cost): how";
  say "    expensive could mediation get before the service-level overhead";
  say "    stops being tolerable?";
  let t =
    Table.create ~title:"A1 mediation-cost sweep (4 replicas, 60 req/s, 60 s)"
      ~columns:
        [
          ("mediation ms/req", Table.Right);
          ("goodput", Table.Right);
          ("p99 (s)", Table.Right);
          ("overhead vs free", Table.Right);
        ]
  in
  let run overhead_per_request =
    let e = Engine.create () in
    let cfg =
      { (Service.baseline_config ~replicas:4) with Service.overhead_per_request }
    in
    let svc = Service.create ~engine:e cfg in
    Workload.drive ~engine:e ~service:svc ~prng:(Prng.create 1100L)
      { Workload.default_spec with Workload.rate = 60.0; duration = 60.0 };
    Engine.run e;
    let m = Service.stats svc ~at:(Engine.now e) in
    let p99 =
      match m.Service.latencies with
      | [] -> 0.0
      | xs ->
        let arr = Array.of_list xs in
        Array.sort compare arr;
        Stats.percentile arr 0.99
    in
    (m.Service.goodput, p99)
  in
  let free, _ = run 0.0 in
  List.iter
    (fun ms ->
      let g, p99 = run (ms /. 1000.0) in
      Table.add_row t
        [
          Printf.sprintf "%.1f" ms;
          Printf.sprintf "%.1f/s" g;
          Printf.sprintf "%.3f" p99;
          Table.cell_pct (if free > 0.0 then (free -. g) /. free else 0.0);
        ])
    [ 0.0; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0 ];
  Table.print t

(* ================================================================== *)
(* A2 ablation: set partitioning vs physical core separation          *)
(* ================================================================== *)

let a2 () =
  say "A2  Ablation: the point mitigation (cache set partitioning) vs";
  say "    Guillotine's physical separation";
  say "    Partitioning also kills the channel — but halves each tenant's";
  say "    cache, which benign workloads pay for.  Separation kills it at";
  say "    full capacity per domain (the silicon cost is cores, not misses).";
  let prng = Prng.create 1200L in
  let secret = Bits.random prng 128 in
  (* Channel accuracy under each regime. *)
  let co = Cotenant.create () in
  let shared =
    Covert.prime_probe ~sender:(Cotenant.guest_view co)
      ~receiver:(Cotenant.host_view co) secret
  in
  let co2 = Cotenant.create () in
  let partitioned =
    Covert.prime_probe ~sender:(Cotenant.guest_view co2)
      ~receiver:(Cotenant.host_view co2) ~sender_set_offset:32 secret
  in
  let m = Machine.create () in
  let split =
    Covert.prime_probe
      ~sender:(Core.hierarchy (Machine.model_core m 0))
      ~receiver:(Core.hierarchy (Machine.hyp_core m 0))
      secret
  in
  (* Benign capacity cost: stream a working set sized at 3/4 of the full
     L1 through (a) a full-size L1 and (b) a half-size L1 (each
     partition owns half the sets). *)
  let module Cache = Guillotine_memory.Cache in
  let bench_capacity cfg =
    let dram = Dram.create ~size:(64 * 1024) in
    let h = Guillotine_memory.Hierarchy.create ~l1:cfg ~dram () in
    let l1_words = cfg.Cache.sets * cfg.Cache.ways * cfg.Cache.line_words in
    ignore l1_words;
    (* The working set is sized against the FULL cache (64x8x8 words):
       a fair tenant expected that much capacity. *)
    let full = Cache.config_l1 in
    let working_words =
      3 * (full.Cache.sets * full.Cache.ways * full.Cache.line_words) / 4
    in
    let accesses = ref 0 and cycles = ref 0 in
    for _round = 1 to 4 do
      let i = ref 0 in
      while !i < working_words do
        cycles := !cycles + Guillotine_memory.Hierarchy.touch h ~addr:!i;
        incr accesses;
        i := !i + cfg.Cache.line_words
      done
    done;
    float_of_int !cycles /. float_of_int !accesses
  in
  let full_cpa = bench_capacity Cache.config_l1 in
  let half_cpa =
    bench_capacity { Cache.config_l1 with Cache.sets = Cache.config_l1.Cache.sets / 2 }
  in
  let t =
    Table.create ~title:"A2 mitigation comparison"
      ~columns:
        [
          ("regime", Table.Left);
          ("channel acc", Table.Right);
          ("benign cycles/access", Table.Right);
          ("verdict", Table.Left);
        ]
  in
  Table.add_row t
    [ "shared cache (baseline)"; Table.cell_pct shared.Covert.accuracy;
      Printf.sprintf "%.1f" full_cpa; "leaks at full speed" ];
  Table.add_row t
    [ "set-partitioned (half each)"; Table.cell_pct partitioned.Covert.accuracy;
      Printf.sprintf "%.1f" half_cpa; "channel dead; capacity tax" ];
  Table.add_row t
    [ "guillotine split cores"; Table.cell_pct split.Covert.accuracy;
      Printf.sprintf "%.1f" full_cpa; "channel dead; full capacity" ];
  Table.print t

(* ================================================================== *)
(* A3 ablation: heartbeat tuning on an unreliable link                *)
(* ================================================================== *)

let a3 () =
  say "A3  Ablation: heartbeat timeout vs link loss";
  say "    The fail-safe trade-off: tight timeouts detect console death fast";
  say "    but false-positive into offline isolation on a lossy link; the";
  say "    timeout must be provisioned for the link, not just the threat.";
  let t =
    Table.create ~title:"A3 heartbeat tuning (period 1 s; death at t=200 s)"
      ~columns:
        [
          ("link loss", Table.Right);
          ("timeout (s)", Table.Right);
          ("false offline /200 s healthy", Table.Right);
          ("detection delay (s)", Table.Right);
        ]
  in
  List.iter
    (fun loss ->
      List.iter
        (fun timeout ->
          (* Healthy phase: count spurious losses over 200 s. *)
          let e = Engine.create () in
          let fp = ref 0 in
          let hb =
            Heartbeat.start ~engine:e ~period:1.0 ~timeout ~loss
              ~prng:(Prng.create 1300L) ~key:"k"
              ~on_loss:(fun _ -> incr fp)
              ()
          in
          Engine.run e ~until:200.0;
          Heartbeat.stop hb;
          (* Death phase: real console failure at t = 200. *)
          let e2 = Engine.create () in
          let detected_at = ref Float.nan in
          let hb2 =
            Heartbeat.start ~engine:e2 ~period:1.0 ~timeout ~loss
              ~prng:(Prng.create 1301L) ~key:"k"
              ~on_loss:(fun side ->
                (* Only the detection of the real (t>=200) death counts;
                   earlier firings are the false positives the healthy
                   column already measures. *)
                if
                  side = Heartbeat.Hypervisor_side
                  && Float.is_nan !detected_at
                  && Engine.now e2 >= 200.0
                then detected_at := Engine.now e2)
              ()
          in
          ignore
            (Engine.schedule e2 ~delay:200.0 (fun () ->
                 Heartbeat.suppress hb2 Heartbeat.Console_side));
          Engine.run e2 ~until:300.0;
          Heartbeat.stop hb2;
          Table.add_row t
            [
              Table.cell_pct loss;
              Printf.sprintf "%.1f" timeout;
              Table.cell_i !fp;
              (if Float.is_nan !detected_at then "undetected!"
               else Printf.sprintf "%.1f" (!detected_at -. 200.0));
            ])
        [ 2.5; 3.5; 6.5; 12.5 ])
    [ 0.0; 0.05; 0.2; 0.4 ];
  Table.print t

(* ================================================================== *)
(* R1: availability under a seeded fault storm (§3.4 recovery paths)  *)
(* ================================================================== *)

let r1 () =
  let module Fault_plan = Guillotine_faults.Fault_plan in
  let module Injector = Guillotine_faults.Injector in
  let module Cluster = Guillotine_faults.Cluster in
  say "R1  Availability under a deterministic fault storm";
  say "    The same seeded Fault_plan.storm (brownouts, slowdowns, and a";
  say "    permanent primary failure) hits a traditional single deployment";
  say "    and a Guillotine cluster (retry + shedding + failover).  The";
  say "    expected shape: the baseline dies with its primary; the cluster";
  say "    keeps serving at >=10x the baseline's goodput.";
  let horizon = 120.0 in
  let load_duration = 100.0 in
  let rate = 20.0 in
  let drive engine submit seed =
    let wl = Prng.create (Int64.of_int (0x3_0AD + seed)) in
    let next_id = ref 0 in
    ignore
      (Engine.every engine ~period:(1.0 /. rate) (fun () ->
           incr next_id;
           ignore
             (submit
                {
                  Service.id = !next_id;
                  session = Prng.int wl 16;
                  prompt_tokens = 16 + Prng.int wl 32;
                  output_tokens = 8 + Prng.int wl 8;
                });
           Engine.now engine < load_duration));
    next_id
  in
  let t =
    Table.create ~title:"R1 fault storm: traditional vs guillotine cluster"
      ~columns:
        [
          ("seed", Table.Right);
          ("stack", Table.Left);
          ("submitted", Table.Right);
          ("completed", Table.Right);
          ("availability", Table.Right);
          ("p99 (s)", Table.Right);
          ("goodput (req/s)", Table.Right);
          ("goodput ratio", Table.Right);
        ]
  in
  List.iter
    (fun seed ->
      let plan = Fault_plan.storm ~seed ~horizon in
      (* Baseline: one traditional deployment, no retries, no shedding,
         nowhere to fail over to.  The storm's primary-down is terminal. *)
      let eb = Engine.create () in
      let baseline =
        Service.create
          ~prng:(Prng.create (Int64.of_int (0xB0_0B + seed)))
          ~engine:eb
          (Service.baseline_config ~replicas:4)
      in
      let binj = Injector.create ~engine:eb () in
      Injector.install binj ~service:baseline plan;
      let bsub = drive eb (Service.submit baseline) seed in
      Engine.run eb ~until:horizon ~max_events:5_000_000;
      let bm = Service.stats baseline ~at:horizon in
      let bs = Stats.summarize bm.Service.latencies in
      (* Guillotine: resilient primary + backup behind failover.  The
         SAME plan hits the primary. *)
      let eg = Engine.create () in
      let mk s =
        Service.create
          ~prng:(Prng.create (Int64.of_int (s + seed)))
          ~engine:eg
          (Service.resilient_config ~replicas:2)
      in
      let primary = mk 0x9121 and backup = mk 0xBACC in
      let cluster = Cluster.create ~engine:eg ~primary ~backup () in
      let ginj = Injector.create ~engine:eg () in
      Injector.install ginj ~service:primary plan;
      let gsub = drive eg (Cluster.submit cluster) seed in
      Engine.run eg ~until:horizon ~max_events:5_000_000;
      let pm = Service.stats primary ~at:horizon in
      let km = Service.stats backup ~at:horizon in
      let gs = Stats.summarize (pm.Service.latencies @ km.Service.latencies) in
      let completed = Cluster.completed cluster in
      let avail sub comp =
        if sub = 0 then 1.0 else float_of_int comp /. float_of_int sub
      in
      let goodput comp = float_of_int comp /. load_duration in
      let row stack sub comp p99 ratio =
        Table.add_row t
          [
            string_of_int seed;
            stack;
            Table.cell_i sub;
            Table.cell_i comp;
            Table.cell_pct (avail sub comp);
            Printf.sprintf "%.3f" p99;
            Printf.sprintf "%.1f" (goodput comp);
            ratio;
          ]
      in
      row "traditional" !bsub bm.Service.completed bs.Stats.p99 "1.0x";
      row "guillotine" !gsub completed gs.Stats.p99
        (if bm.Service.completed = 0 then "inf"
         else
           Printf.sprintf "%.1fx"
             (float_of_int completed /. float_of_int bm.Service.completed)))
    [ 1; 2; 3 ];
  Table.print t

(* ================================================================== *)
(* O1: detection latency + observability overhead (§4 self-checking)  *)
(* ================================================================== *)

let o1 () =
  let module Scenarios = Guillotine_faults.Scenarios in
  let module Telemetry = Guillotine_telemetry.Telemetry in
  say "O1  Detection latency and observability overhead (§4 self-checking)";
  say "    Every golden fault scenario replays with the monitoring plane";
  say "    attached: 2 Hz time-series sampling of every registry, the stock";
  say "    SLO watchdog ruleset, and the cross-layer flight recorder.";
  say "    Expected shape: every injected fault is detected (finite alert";
  say "    latency), and monitoring costs <5%% wall-clock on the f-series.";
  let t =
    Table.create ~title:"O1 detection latency (seed 1)"
      ~columns:
        [
          ("scenario", Table.Left);
          ("verdict", Table.Left);
          ("fault at (s)", Table.Right);
          ("first alert", Table.Left);
          ("severity", Table.Left);
          ("latency (s)", Table.Right);
          ("alerts", Table.Right);
        ]
  in
  List.iter
    (fun name ->
      let m = Scenarios.run_monitored name ~seed:1 in
      let fault_at =
        match m.Scenarios.first_fault_at with
        | Some a -> Printf.sprintf "%.2f" a
        | None -> "-"
      in
      let rule, severity =
        match m.Scenarios.first_fault_at with
        | Some at -> (
          match
            List.find_opt (fun (_, _, raised) -> raised >= at) m.Scenarios.alerts
          with
          | Some (r, s, _) -> (r, s)
          | None -> ("-", "-"))
        | None -> ("-", "-")
      in
      let latency =
        match m.Scenarios.detection_latency_s with
        | Some l -> Printf.sprintf "%.2f" l
        | None -> "UNDETECTED"
      in
      Table.add_row t
        [
          name;
          m.Scenarios.base.Scenarios.verdict;
          fault_at;
          rule;
          severity;
          latency;
          string_of_int (List.length m.Scenarios.alerts);
        ])
    Scenarios.names;
  Table.print t;
  (* Overhead on the six deployment-backed scenarios.  With keys
     generated on first use each takes only 0.015-0.5 s of host CPU
     (attestation, sealing, rollback), and run-to-run scheduler noise
     on rigs that short is tens of percent per rig, larger than the
     <5% target: a single run's aggregate can read either side of it.
     Median-of-reps per side damps but does not remove that noise. *)
  let reps = 3 in
  let median f =
    let ts =
      List.init reps (fun _ ->
          let t0 = Sys.time () in
          ignore (f ());
          Sys.time () -. t0)
    in
    List.nth (List.sort Float.compare ts) (reps / 2)
  in
  let deployment_scenarios =
    [
      "heartbeat-outage"; "weight-tamper-rollback"; "core-wedge-rollback";
      "false-alarm-probation"; "nic-flaky-attest"; "irq-storm-contained";
    ]
  in
  let ov =
    Table.create ~title:"O1 observability overhead (f-series-scale rigs)"
      ~columns:
        [
          ("scenario", Table.Left);
          ("bare (s)", Table.Right);
          ("monitored (s)", Table.Right);
          ("overhead", Table.Right);
        ]
  in
  let total_bare = ref 0.0 and total_mon = ref 0.0 in
  List.iter
    (fun name ->
      let bare = median (fun () -> Scenarios.run name ~seed:1) in
      let monitored = median (fun () -> Scenarios.run_monitored name ~seed:1) in
      total_bare := !total_bare +. bare;
      total_mon := !total_mon +. monitored;
      Table.add_row ov
        [
          name;
          Printf.sprintf "%.3f" bare;
          Printf.sprintf "%.3f" monitored;
          Printf.sprintf "%+.1f%%" (100.0 *. ((monitored -. bare) /. bare));
        ])
    deployment_scenarios;
  say "";
  Table.print ov;
  let overall = 100.0 *. ((!total_mon -. !total_bare) /. !total_bare) in
  say "aggregate overhead: %+.1f%%  (target <5%%: %s)" overall
    (if overall < 5.0 then "PASS" else "FAIL");
  (* The two serving rigs run 90-130 simulated seconds in a few
     milliseconds of host CPU, so a wall-clock ratio against them is
     noise-over-noise; report the monitor's absolute per-sample cost
     instead (what any real deployment would pay per 0.5 s tick). *)
  say "";
  List.iter
    (fun name ->
      let bare = median (fun () -> Scenarios.run name ~seed:1) in
      let t0 = Sys.time () in
      let m = Scenarios.run_monitored name ~seed:1 in
      let monitored_once = Sys.time () -. t0 in
      let samples =
        List.fold_left
          (fun acc (snap : Telemetry.snapshot) ->
            if snap.Telemetry.component <> "obs" then acc
            else
              List.fold_left
                (fun acc -> function
                  | "samples.taken", Telemetry.Counter n -> acc + n
                  | _ -> acc)
                acc snap.Telemetry.values)
          0 m.Scenarios.base.Scenarios.snapshots
      in
      let per_sample_us =
        if samples = 0 then 0.0
        else 1e6 *. Float.max 0.0 (monitored_once -. bare) /. float_of_int samples
      in
      say "  %-24s %4d samples, ~%.0f us per sample (bare run: %.3fs host CPU)"
        name samples per_sample_us bare)
    [ "device-stall-shedding"; "fault-storm-failover" ]

(* ================================================================== *)
(* V1: admission-time static vetting (§3.2 least privilege)           *)
(* ================================================================== *)

let v1 () =
  let module Vet = Guillotine_vet.Vet in
  let module Corpus = Guillotine_core.Vet_corpus in
  let module Scenarios = Guillotine_faults.Scenarios in
  say "V1  Static vetting: admission rejection vs runtime detection (§3.2)";
  say "    Every shipped guest runs through lib/vet before installation.";
  say "    Expected shape: every adversarial guest rejects before a single";
  say "    cycle executes, every benign guest admits (zero false positives),";
  say "    and the analysis costs microseconds of host CPU per guest — to";
  say "    compare against the seconds of simulated exposure the runtime";
  say "    detectors need in O1.";
  let reps = 25 in
  let t =
    Table.create ~title:"V1 admission verdicts and analysis cost"
      ~columns:
        [
          ("guest", Table.Left);
          ("class", Table.Left);
          ("verdict", Table.Left);
          ("E/W/I", Table.Right);
          ("instrs", Table.Right);
          ("us/vet", Table.Right);
          ("us/instr", Table.Right);
          ("expected", Table.Left);
        ]
  in
  let mismatches = ref 0 in
  let total_us = ref 0.0 in
  let total_instrs = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let r = Corpus.vet e in
      let t0 = Sys.time () in
      for _ = 1 to reps do
        ignore (Corpus.vet e)
      done;
      let us = 1e6 *. (Sys.time () -. t0) /. float_of_int reps in
      let errors = List.length (Vet.errors r) in
      let warns = List.length (Vet.warnings r) in
      let infos = List.length r.Vet.findings - errors - warns in
      let ok = r.Vet.verdict = e.Corpus.expected in
      if not ok then incr mismatches;
      total_us := !total_us +. us;
      total_instrs := !total_instrs + r.Vet.instr_count;
      Table.add_row t
        [
          e.Corpus.name;
          (if e.Corpus.malicious then "malicious" else "benign");
          Vet.verdict_label r.Vet.verdict;
          Printf.sprintf "%d/%d/%d" errors warns infos;
          string_of_int r.Vet.instr_count;
          Printf.sprintf "%.1f" us;
          Printf.sprintf "%.2f" (us /. float_of_int (max 1 r.Vet.instr_count));
          (if ok then Vet.verdict_label e.Corpus.expected else "MISMATCH");
        ])
    Corpus.all;
  Table.print t;
  if !mismatches > 0 then
    say "  *** %d corpus verdicts diverge from expectations ***" !mismatches
  else
    say "  all %d corpus verdicts match expectations"
      (List.length Corpus.all);
  say "  aggregate: %.1f us of host CPU to vet %d reachable instructions \
       (%.2f us/instr)"
    !total_us !total_instrs
    (!total_us /. float_of_int (max 1 !total_instrs));
  (* The runtime-detection yardstick: the same storm the vetter rejects
     statically (irq-flood) is the one scenario O1's watchdogs catch
     only after the doorbells start ringing. *)
  let m = Scenarios.run_monitored "irq-storm-contained" ~seed:1 in
  match m.Scenarios.detection_latency_s with
  | Some l ->
      say "  runtime yardstick: O1's irq-storm-contained is detected %.2fs of \
           simulated time after the fault fires; the vetter rejects the \
           irq-flood guest before cycle zero."
        l
  | None ->
      say "  runtime yardstick: irq-storm-contained went UNDETECTED by the \
           monitoring plane (unexpected)."

(* ================================================================== *)
(* V2: co-admission interference vs runtime detection                  *)
(* ================================================================== *)

let v2 () =
  let module Vet = Guillotine_vet.Vet in
  let module Interfere = Guillotine_vet.Interfere in
  let module Lints = Guillotine_vet.Lints in
  let module Corpus = Guillotine_core.Vet_corpus in
  let module Scenarios = Guillotine_faults.Scenarios in
  say "V2  Co-admission interference: which post-admission adversaries become";
  say "    statically rejectable once guests are vetted as a *set* (lib/vet's";
  say "    second stage, fed each guest's planned placement, DMA windows and";
  say "    descriptor regions), and which are fundamentally runtime-only.";
  say "    Expected shape: memory- and doorbell-shaped attacks (self-patch";
  say "    loader, descriptor rewrite, burst summing) reject before cycle 0;";
  say "    temporal hostility (exfil sprint, hostage-taking) and attacks on";
  say "    the installer itself co-admit clean — the runtime plane keeps those.";
  (* One row per PR-7 adversary guest: the roster that carries it through
     the co-admission gate, and the runtime scenario whose detection
     latency is the yardstick the static verdict competes with. *)
  let rows =
    [
      ("dma-sleeper", "toctou-dma-self-patch", "sleeper-loader");
      ("dma-courier", "toctou-shared-window-rewrite", "colluding-pair");
      ("window-scribbler", "toctou-shared-window-rewrite", "colluding-pair");
      ("patch-payload", "toctou-install-race", "patch-direct");
      ("replicator", "killswitch-replicate", "replicator-burst");
      ("exfil-courier", "killswitch-exfil-sprint", "exfil-rider");
      ("hostage-worker", "killswitch-hostage", "hostage-solo");
    ]
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let coadmit_cache = ref [] in
  let coadmit name =
    match List.assoc_opt name !coadmit_cache with
    | Some rep -> rep
    | None ->
      let rep =
        match Corpus.find_roster name with
        | Some r -> Corpus.coadmit r
        | None -> invalid_arg (Printf.sprintf "roster %s missing" name)
      in
      coadmit_cache := (name, rep) :: !coadmit_cache;
      rep
  in
  let latency_cache = ref [] in
  let latency scenario =
    match List.assoc_opt scenario !latency_cache with
    | Some l -> l
    | None ->
      let o = Scenarios.run ~seed:1 scenario in
      let l =
        match o.Scenarios.adversary with
        | Some a -> a.Scenarios.detection_latency_s
        | None -> None
      in
      latency_cache := (scenario, l) :: !latency_cache;
      l
  in
  let finding_for rep label =
    let errs = Interfere.errors rep in
    match
      List.find_opt
        (fun (f : Lints.finding) -> contains f.Lints.detail label)
        errs
    with
    | Some f -> f.Lints.rule
    | None -> (
        match errs with f :: _ -> f.Lints.rule | [] -> "-")
  in
  let t =
    Table.create ~title:"V2 static co-admission vs runtime detection (seed 1)"
      ~columns:
        [
          ("adversary guest", Table.Left);
          ("roster", Table.Left);
          ("co-admission", Table.Left);
          ("named finding", Table.Left);
          ("runtime scenario", Table.Left);
          ("detect latency", Table.Right);
          ("class", Table.Left);
        ]
  in
  let static_count = ref 0 in
  List.iter
    (fun (guest, scenario, roster) ->
      let rep = coadmit roster in
      let rejected = rep.Interfere.verdict = Vet.Reject in
      if rejected then incr static_count;
      let lat =
        match latency scenario with
        | Some l -> Printf.sprintf "%.2fs" l
        | None -> "undetected"
      in
      Table.add_row t
        [
          guest;
          roster;
          Vet.verdict_label rep.Interfere.verdict;
          (if rejected then finding_for rep guest else "-");
          scenario;
          lat;
          (if rejected then "static" else "runtime-only");
        ])
    rows;
  Table.print t;
  say "  %d of %d adversary guests are now rejectable at co-admission, at the"
    !static_count (List.length rows);
  say "  microsecond analysis cost the coadmit-pair bench pins — vs 0.05-2.3";
  say "  simulated seconds of exposure (plus residual damage) on the runtime";
  say "  path.  patch-payload rejects when *presented* to the gate; its";
  say "  install-race scenario smuggles it past the vetter entirely, so the";
  say "  TOCTOU defence stays with the runtime plane.  exfil-courier and";
  say "  hostage-worker are temporally hostile (trigger on heartbeat loss,";
  say "  withhold goodput): nothing in their memory or doorbell footprint";
  say "  distinguishes them, and co-admission rightly finds zero findings."

let all = [
  ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5); ("t6", t6);
  ("f1", f1); ("f2", f2); ("f3", f3); ("f4", f4); ("f5", f5);
  ("f6", f6); ("f7", f7); ("f8", f8); ("f9", f9); ("f10", f10); ("f11", f11);
  ("a1", a1); ("a2", a2); ("a3", a3); ("r1", r1); ("o1", o1); ("v1", v1);
  ("v2", v2);
]
