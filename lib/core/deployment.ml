module Engine = Guillotine_sim.Engine
module Machine = Guillotine_machine.Machine
module Hypervisor = Guillotine_hv.Hypervisor
module Inference = Guillotine_hv.Inference
module Isolation = Guillotine_hv.Isolation
module Audit = Guillotine_hv.Audit
module Console = Guillotine_physical.Console
module Kill_switch = Guillotine_physical.Kill_switch
module Toymodel = Guillotine_model.Toymodel
module Vocab = Guillotine_model.Vocab
module Fabric = Guillotine_net.Fabric
module Attest = Guillotine_net.Attest
module Tls = Guillotine_net.Tls
module Hsm = Guillotine_hsm.Hsm
module Input_shield = Guillotine_detect.Input_shield
module Output_sanitizer = Guillotine_detect.Output_sanitizer
module Anomaly = Guillotine_detect.Anomaly
module Mmu = Guillotine_memory.Mmu
module Core = Guillotine_microarch.Core
module Prng = Guillotine_util.Prng
module Crypto = Guillotine_crypto
module Telemetry = Guillotine_telemetry.Telemetry
module Monitor = Guillotine_obs.Monitor
module Watchdog = Guillotine_obs.Watchdog
module Timeseries = Guillotine_obs.Timeseries
module Recorder = Guillotine_obs.Recorder

let weights_base = 64 * 1024

(* Simulated platform components whose digests form the attestation
   measurement.  The "images" are fixed strings standing in for binary
   blobs; what matters is that the measurement binds to them and to the
   machine configuration. *)
let firmware_image = "GUILLOTINE-FIRMWARE v1.0 (simulated mask ROM)"
let hypervisor_image = "GUILLOTINE-SOFTWARE-HYPERVISOR v1.0 (simulated image)"

type t = {
  name : string;
  engine : Engine.t;
  machine : Machine.t;
  hv : Hypervisor.t;
  console : Console.t;
  fabric : Fabric.t;
  prng : Prng.t;
  net_addr : int;
  tls_endpoint : Tls.endpoint Lazy.t;
  ca_public_key : Crypto.Signature.public_key Lazy.t;
  platform_key : (Crypto.Signature.signer * Crypto.Signature.public_key) Lazy.t;
  mutable model_digest : string option;
  mutable frame_handlers : (src:int -> payload:string -> bool) list;
      (* inbound dispatch: first handler returning true consumes *)
  mutable monitor : Monitor.t option;
  mutable request_seq : int;
}

let measurement_of_machine m =
  {
    Attest.firmware = firmware_image;
    hypervisor_image;
    configuration = Machine.configuration m;
  }

let create ?(seed = 0xDEC0DEL) ?mode ?(name = "guillotine-0") ?(net_addr = 100) ?ca () =
  let prng = Prng.create seed in
  let engine = Engine.create () in
  (* Derive the fabric's prng from the deployment seed directly rather
     than splitting [prng]: keeps the split sequence (console keys, CA,
     TLS, platform signer) stable while still making loss/corruption
     draws — the fault plane's NIC faults — vary with the seed. *)
  let fabric = Fabric.create ~prng:(Prng.create (Int64.logxor seed 0xFAB12CL)) engine in
  let machine = Machine.create ?mode () in
  let anomaly_detector, _ = Anomaly.create () in
  let detectors =
    [ Input_shield.detector (); Output_sanitizer.detector (); anomaly_detector ]
  in
  let hv = Hypervisor.create ~machine ~detectors () in
  Hypervisor.enable_probe_monitor hv;
  let switches =
    Kill_switch.create ~engine ~fabric ~net_addrs:[ net_addr ] ()
  in
  let console = Console.create ~engine ~hv ~switches ~prng:(Prng.split prng) () in
  (* Keys are generated on first use; the PRNG splits stay here, in
     this order, so every key and certificate is the one an eager
     build would make. *)
  let ca_key =
    match ca with
    | Some ca -> Lazy.from_val ca
    | None ->
      let key = Crypto.Signature.defer ~height:8 (Prng.split prng) in
      lazy
        (let signer, public_key = Lazy.force key in
         (signer, "ai-regulator-ca", public_key))
  in
  let tls_endpoint =
    let prng = Prng.split prng in
    lazy
      (let ca, ca_name, ca_public_key = Lazy.force ca_key in
       Tls.make_endpoint ~prng ~ca ~ca_name ~ca_public_key ~name
         ~guillotine_hypervisor:true ())
  in
  (* A shared CA signs with its leaves in order, so its certificate for
     this deployment is issued now, in creation order. *)
  if Option.is_some ca then ignore (Lazy.force tls_endpoint);
  let platform_key = Crypto.Signature.defer ~height:8 (Prng.split prng) in
  let t_ref = ref None in
  (* One fabric attachment per deployment; services (attestation, NICs)
     register handlers on the dispatcher.  A kill switch unplugs the
     whole address. *)
  Fabric.attach fabric ~addr:net_addr (fun ~src ~payload ->
      match !t_ref with
      | None -> ()
      | Some t ->
        ignore (List.exists (fun h -> h ~src ~payload) t.frame_handlers));
  let t = {
    name;
    engine;
    machine;
    hv;
    console;
    fabric;
    prng;
    net_addr;
    tls_endpoint;
    ca_public_key = lazy (let _, _, public_key = Lazy.force ca_key in public_key);
    platform_key;
    model_digest = None;
    frame_handlers = [];
    monitor = None;
    request_seq = 0;
  }
  in
  t_ref := Some t;
  (* Unify every subsystem's telemetry clock on one sim-time axis:
     discrete-event seconds, with machine ticks folded in as nanosecond
     offsets so intra-request mediation structure stays visible.  The
     sum is monotone because both clocks only move forward. *)
  let unified_clock () =
    Engine.now engine +. (1e-9 *. float_of_int (Machine.now machine))
  in
  List.iter
    (fun reg -> Telemetry.set_clock reg unified_clock)
    [
      Machine.telemetry machine;
      Hypervisor.telemetry hv;
      Console.telemetry console;
      Kill_switch.telemetry switches;
    ];
  t

let name t = t.name
let engine t = t.engine
let machine t = t.machine
let hv t = t.hv
let console t = t.console
let fabric t = t.fabric
let net_addr t = t.net_addr
let tls_endpoint t = Lazy.force t.tls_endpoint
let ca_public_key t = Lazy.force t.ca_public_key

(* ------------------------------------------------------------------ *)
(* Model lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

let load_model t ?malice () =
  let dram = Machine.model_dram t.machine in
  let model =
    Toymodel.init ~dram ~base:weights_base ?malice ~seed:(Prng.int64 t.prng) ()
  in
  let digest = Toymodel.weights_digest model in
  t.model_digest <- Some digest;
  ignore
    (Audit.append (Hypervisor.audit t.hv) ~tick:(Machine.now t.machine)
       (Audit.Model_loaded { image_digest_hex = Crypto.Sha256.hex digest }));
  (* Lock the weight pages read-only in every model core's page table:
     the model may read but never update its own weights (§3.2). *)
  let page_size = 256 in
  let first_page = weights_base / page_size in
  let last_page = (weights_base + Toymodel.weights_words model - 1) / page_size in
  Array.iter
    (fun core ->
      let mmu = Core.mmu core in
      for p = first_page to last_page do
        match Mmu.map mmu ~vpage:p ~frame:p Mmu.perm_r with
        | Ok () -> ()
        | Error f ->
          failwith (Format.asprintf "weight page mapping failed: %a" Mmu.pp_fault f)
      done)
    (Machine.model_cores t.machine);
  model

let coadmit t ?label specs = Hypervisor.coadmit t.hv ?label specs

let serve t ~model request =
  match t.monitor with
  | None -> Inference.run t.hv ~model request
  | Some m ->
    (* Thread a causal request id through the flight recorder: every
       event any layer journals while this request is in flight — a
       detector verdict, an isolation change — carries the same id. *)
    t.request_seq <- t.request_seq + 1;
    let id = t.request_seq in
    let recorder = Monitor.recorder m in
    Recorder.with_request recorder id (fun () ->
        Recorder.record recorder ~source:"deploy" ~kind:"request.begin"
          ("prompt_tokens=" ^ string_of_int (List.length request.Inference.prompt)
          ^ " max_tokens=" ^ string_of_int request.Inference.max_tokens);
        let outcome = Inference.run t.hv ~model request in
        Recorder.record recorder ~source:"deploy" ~kind:"request.end"
          ("released=" ^ string_of_int (List.length outcome.Inference.released)
          ^ " blocked=" ^ string_of_bool outcome.Inference.blocked_at_input
          ^ " broken=" ^ string_of_bool outcome.Inference.broken);
        outcome)

let verify_model_integrity t model =
  match t.model_digest with
  | None -> invalid_arg "verify_model_integrity: no model loaded"
  | Some expected ->
    let was_quiescent = Machine.all_models_quiescent t.machine in
    if not was_quiescent then Machine.pause_all_models t.machine;
    let current = Toymodel.weights_digest model in
    if not was_quiescent then Machine.resume_all_models t.machine;
    let ok = String.equal current expected in
    if not ok then
      ignore
        (Audit.append (Hypervisor.audit t.hv) ~tick:(Machine.now t.machine)
           (Audit.Alarm
              { severity = "critical"; reason = "model weight measurement mismatch" }));
    ok

let checkpoint t =
  let was_quiescent = Machine.all_models_quiescent t.machine in
  if not was_quiescent then Machine.pause_all_models t.machine;
  let snap = Guillotine_machine.Snapshot.capture t.machine in
  if not was_quiescent then Machine.resume_all_models t.machine;
  ignore
    (Audit.append (Hypervisor.audit t.hv) ~tick:(Machine.now t.machine)
       (Audit.Note
          (Printf.sprintf "checkpoint captured (digest %s…)"
             (String.sub (Guillotine_machine.Snapshot.digest_hex snap) 0 12))));
  snap

let rollback t snap =
  Machine.pause_all_models t.machine;
  Guillotine_machine.Snapshot.restore t.machine snap;
  ignore
    (Audit.append (Hypervisor.audit t.hv) ~tick:(Machine.now t.machine)
       (Audit.Note
          (Printf.sprintf "ROLLBACK to checkpoint (digest %s…)"
             (String.sub (Guillotine_machine.Snapshot.digest_hex snap) 0 12))))

(* A core is "wedged" when it sits in Forced_pause at sweep time even
   though it has executed instructions: the deployment's own pauses are
   transient within a call, so a pause still visible from an engine
   callback means nobody is coming back for it.  Cores that never ran
   (spare cores with no program installed) are exempt. *)
let wedged_cores t =
  Machine.model_cores t.machine |> Array.to_list
  |> List.filter (fun c ->
         Core.instructions_retired c > 0
         && match Core.status c with
            | Core.Halted Core.Forced_pause -> true
            | _ -> false)

let enable_model_guard ?(period = 5.0) t model =
  let known_good = checkpoint t in
  let check () =
    match wedged_cores t with
    | c :: _ -> Error (Printf.sprintf "model core %d wedged" (Core.id c))
    | [] ->
      if verify_model_integrity t model then Ok ()
      else Error "model weight measurement mismatch"
  in
  let recover ~reason:_ =
    rollback t known_good;
    (* [rollback] leaves every core paused; wake only the ones that were
       ever in use so spare cores stay quiescent. *)
    Array.iter
      (fun c -> if Core.instructions_retired c > 0 then Core.resume c)
      (Machine.model_cores t.machine);
    if verify_model_integrity t model then Ok "snapshot rollback"
    else Error "measurement still mismatched after rollback"
  in
  Console.start_recovery_sweep t.console ~period ~check ~recover

(* ------------------------------------------------------------------ *)
(* Attestation                                                         *)
(* ------------------------------------------------------------------ *)

let measurement t = measurement_of_machine t.machine

let attest t ~nonce =
  Attest.make_quote ~key:(fst (Lazy.force t.platform_key)) (measurement t) ~nonce

let attest_prefix = "ATTEST:"

let add_frame_handler t h = t.frame_handlers <- t.frame_handlers @ [ h ]

let enable_attestation_service t =
  add_frame_handler t (fun ~src ~payload ->
      let plen = String.length attest_prefix in
      if String.length payload > plen && String.sub payload 0 plen = attest_prefix then begin
        let nonce = String.sub payload plen (String.length payload - plen) in
        let quote = attest t ~nonce in
        Fabric.send t.fabric ~src:t.net_addr ~dest:src
          ~payload:("QUOTE:" ^ Attest.encode_quote quote);
        true
      end
      else false)

let wire_nic t nic =
  (* Outbound: the NIC's transmit pin drives the fabric from this
     deployment's address.  Inbound: frames not claimed by another
     service land in the NIC's receive queue. *)
  Guillotine_devices.Nic.set_transmit nic (fun ~dest ~payload ->
      Fabric.send t.fabric ~src:t.net_addr ~dest ~payload);
  add_frame_handler t (fun ~src ~payload ->
      ignore (Guillotine_devices.Nic.deliver nic ~src ~payload);
      true)

let platform_key t = snd (Lazy.force t.platform_key)

let expected_measurement_root t = Attest.measurement_root (measurement t)

(* ------------------------------------------------------------------ *)
(* Admin shortcuts                                                     *)
(* ------------------------------------------------------------------ *)

let approvals t ~admins proposal =
  List.map (fun i -> Hsm.approve (Console.hsm t.console) ~admin:i proposal) admins

let request_level t ~target ~admins =
  let proposal = Console.propose t.console ~target in
  let approvals = approvals t ~admins proposal in
  Console.submit t.console ~proposal ~approvals

(* Must cover the slowest physical actuation with margin: manual cable
   repair takes 3600 s, and a heartbeat-driven forced-offline can only
   be observed after the repair completes and more beats flow.  Two
   hours covers repair + every other actuation latency stacked. *)
let default_settle_horizon = 7200.0

let settle ?(horizon = default_settle_horizon) t =
  Engine.run t.engine ~until:(Engine.now t.engine +. horizon) ~max_events:1_000_000

(* ------------------------------------------------------------------ *)
(* Monitoring & forensics                                              *)
(* ------------------------------------------------------------------ *)

let default_slo_rules =
  let r = Watchdog.rule in
  let delta = Timeseries.Delta in
  [
    (* Isolation / recovery plane: any state change is worth paging on
       in a rig that is supposed to be healthy. *)
    r ~name:"isolation-transition" ~metric:"console.transitions.completed"
      ~signal:delta ~about:"an isolation transition completed"
      (Watchdog.Above 0.0);
    r ~name:"alarm-received" ~metric:"console.alarms.received" ~signal:delta
      ~about:"the console received a detector alarm" (Watchdog.Above 0.0);
    r ~name:"recovery-completed" ~metric:"console.recoveries.completed"
      ~signal:delta ~about:"the recovery sweep repaired the model"
      (Watchdog.Above 0.0);
    r ~name:"recovery-failed" ~metric:"console.recoveries.failed" ~signal:delta
      ~severity:Watchdog.Critical ~about:"a recovery attempt failed"
      (Watchdog.Above 0.0);
    r ~name:"heartbeat-loss" ~metric:"console.heartbeat.losses" ~signal:delta
      ~severity:Watchdog.Critical ~about:"a heartbeat timed out"
      (Watchdog.Above 0.0);
    r ~name:"heartbeat-stale" ~metric:"console.heartbeat.beats" ~warmup:2.0
      ~severity:Watchdog.Critical
      ~about:"no heartbeat exchange observed at all" (Watchdog.Stale 5.0);
    (* Network health: link-quality gauges scraped off the fabric (the
       NOC's switch port counters) catch injected NIC degradation even
       when no victim traffic crosses the fault window. *)
    r ~name:"link-loss" ~metric:"fabric.link.loss_rate"
      ~about:"the fabric is dropping frames" (Watchdog.Above 0.0);
    r ~name:"link-corruption" ~metric:"fabric.link.corruption_rate"
      ~about:"the fabric is corrupting frames" (Watchdog.Above 0.0);
    r ~name:"link-duplication" ~metric:"fabric.link.duplication_rate"
      ~about:"the fabric is duplicating frames" (Watchdog.Above 0.0);
    r ~name:"dma-blocked" ~metric:"machine.dma.bursts_blocked" ~signal:delta
      ~severity:Watchdog.Critical
      ~about:"a device pushed DMA outside its granted windows"
      (Watchdog.Above 0.0);
    (* Observability self-check: a registry overwriting events means the
       forensic record is incomplete. *)
    r ~name:"telemetry-drops" ~metric:"*.telemetry.events_dropped"
      ~about:"a telemetry buffer overflowed and dropped events"
      (Watchdog.Above 0.0);
    (* Serving SLOs: inert unless a serving source is attached. *)
    r ~name:"latency-slo" ~metric:"serve.request.latency_s.p99"
      ~for_duration:1.0 ~about:"p99 request latency above 500 ms"
      (Watchdog.Above 0.5);
    r ~name:"request-shed" ~metric:"serve.requests.shed" ~signal:delta
      ~about:"admission control is shedding requests" (Watchdog.Above 0.0);
    r ~name:"request-retried" ~metric:"serve.requests.retried" ~signal:delta
      ~about:"request attempts are failing and being retried"
      (Watchdog.Above 0.0);
    r ~name:"request-failover" ~metric:"serve.requests.failed_over"
      ~signal:delta ~severity:Watchdog.Critical
      ~about:"requests are exhausting attempts and failing over"
      (Watchdog.Above 0.0);
    r ~name:"queue-depth" ~metric:"serve.queue.depth"
      ~about:"the admission queue is saturating" (Watchdog.Above 40.0);
    r ~name:"goodput-floor" ~metric:"serve.goodput_rps" ~warmup:5.0
      ~about:"goodput collapsed below 1 request/s" (Watchdog.Below 1.0);
  ]

let enable_monitoring t =
  match t.monitor with
  | Some m -> m
  | None ->
    let m = Monitor.create ~engine:t.engine () in
    (* Same unified clock as every other registry, so the alert track
       lines up with subsystem timelines in the exported trace. *)
    Telemetry.set_clock (Monitor.telemetry m) (fun () ->
        Engine.now t.engine +. (1e-9 *. float_of_int (Machine.now t.machine)));
    Monitor.add_registry m (Machine.telemetry t.machine);
    Monitor.add_registry m (Hypervisor.telemetry t.hv);
    Monitor.add_registry m (Console.telemetry t.console);
    Monitor.add_registry m (Kill_switch.telemetry (Console.switches t.console));
    Monitor.add_source m (fun () -> Fabric.metrics t.fabric);
    List.iter (Monitor.add_rule m) default_slo_rules;
    (* Cross-layer flight recorder: point every producer's event sink at
       the journal.  Sinks are plain closures; the producers never learn
       about the observability plane. *)
    let recorder = Monitor.recorder m in
    let sink source ~kind detail =
      Guillotine_obs.Recorder.record recorder ~source ~kind detail
    in
    Console.set_event_sink t.console (sink "console");
    Kill_switch.set_event_sink (Console.switches t.console) (sink "switches");
    Hypervisor.set_event_sink t.hv (sink "hv");
    Monitor.start m;
    t.monitor <- Some m;
    m

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

let profiling t =
  Array.exists Core.profiling (Machine.model_cores t.machine)

(* Collect the raw per-core accumulators into a pure profile value.
   Cores that never executed anything (spare cores) are omitted; labels
   come from the hypervisor's install records, falling back to the core
   id for programs loaded below the hypervisor's back. *)
let profile t =
  if not (profiling t) then None
  else begin
    let labels = Hypervisor.installed_guests t.hv in
    let guests =
      Machine.model_cores t.machine |> Array.to_list
      |> List.filter_map (fun core ->
             let cycles = Core.profile_cycles core in
             if Core.instructions_retired core = 0
                && Array.for_all (fun c -> c = 0) cycles
             then None
             else
               let id = Core.id core in
               let label =
                 match List.assoc_opt id labels with
                 | Some l -> l
                 | None -> Printf.sprintf "core%d" id
               in
               Some
                 (Guillotine_obs.Profile.guest ~core:id ~label
                    ~leaders:(Core.profile_leaders core)
                    ~cycles
                    ~retired:(Core.profile_retired core)))
    in
    match guests with
    | [] -> None (* armed but idle: every model core was a spare *)
    | gs -> Some (Guillotine_obs.Profile.make gs)
  end

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let registries t =
  [
    Machine.telemetry t.machine;
    Hypervisor.telemetry t.hv;
    Console.telemetry t.console;
    Kill_switch.telemetry (Console.switches t.console);
  ]
  @ (match t.monitor with Some m -> [ Monitor.telemetry m ] | None -> [])

let telemetry t =
  [
    Machine.metrics t.machine;
    Hypervisor.metrics t.hv;
    Console.metrics t.console;
    Kill_switch.metrics (Console.switches t.console);
  ]

let export_trace t = Telemetry.export_chrome_trace (registries t)
