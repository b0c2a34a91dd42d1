module Prng = Guillotine_util.Prng
module Engine = Guillotine_sim.Engine
module Vocab = Guillotine_model.Vocab
module Toymodel = Guillotine_model.Toymodel
module Detector = Guillotine_detect.Detector
module Inference = Guillotine_hv.Inference
module Isolation = Guillotine_hv.Isolation
module Console = Guillotine_physical.Console
module Deployment = Guillotine_core.Deployment
module Monitor = Guillotine_obs.Monitor
module Report = Guillotine_obs.Report
module Injector = Guillotine_faults.Injector
module Fault_plan = Guillotine_faults.Fault_plan
module Scenarios = Guillotine_faults.Scenarios
module Sha256 = Guillotine_crypto.Sha256
module Machine = Guillotine_machine.Machine
module Asm = Guillotine_isa.Asm
module Vet = Guillotine_vet.Vet
module Guest_programs = Guillotine_model.Guest_programs
module Vet_corpus = Guillotine_core.Vet_corpus
module Interfere = Guillotine_vet.Interfere

type config = {
  cell_id : int;
  seed : int;
  users : int list;
  requests_per_user : int;
  max_tokens : int;
  rogue : bool;
  storm : bool;
  toctou : bool;
  roster : string list;
}

let cell_name id = Printf.sprintf "cell-%d" id

let config ?(seed = 1) ?users ?(requests_per_user = 4) ?(max_tokens = 12)
    ?(rogue = false) ?(storm = false) ?(toctou = false) ?(roster = [])
    ~cell_id () =
  if cell_id < 0 then invalid_arg "Cell.config: negative cell_id";
  if requests_per_user <= 0 then
    invalid_arg "Cell.config: requests_per_user must be positive";
  if max_tokens <= 0 then invalid_arg "Cell.config: max_tokens must be positive";
  List.iter
    (fun name ->
      if Option.is_none (Vet_corpus.find name) then
        invalid_arg (Printf.sprintf "Cell.config: unknown roster guest %s" name))
    roster;
  let users = match users with Some us -> us | None -> [ cell_id ] in
  { cell_id; seed; users; requests_per_user; max_tokens; rogue; storm; toctou;
    roster }

(* The rogue model's trigger: a benign-band token every user's stream
   periodically ends a prompt with.  Honest models continue generating
   benign text from its row; a malicious row routes into the harmful
   band, which is exactly the behaviour the cell's defences must
   catch. *)
let rogue_trigger = 10

let users_for ~users ~cells ~cell_id =
  if cells <= 0 then invalid_arg "Cell.users_for: cells must be positive";
  if cell_id < 0 || cell_id >= cells then
    invalid_arg "Cell.users_for: cell_id out of range";
  if users < 0 then invalid_arg "Cell.users_for: negative users";
  List.filter (fun u -> u mod cells = cell_id) (List.init users Fun.id)

(* Each user's stream depends only on the fleet seed and the user's own
   id — never on the cell or the fleet width — so a user routed to cell
   3 of 4 sends exactly the bytes they'd send to a solo cell.  This is
   the keystone of the fleet-equals-concatenation property. *)
let user_prng c u = Prng.create (Int64.of_int ((c.seed * 0x1000193) + (u * 0x9E3779)))

(* ------------------------------------------------------------------ *)
(* The cell handle                                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  d : Deployment.t;
  monitor : Monitor.t;
  model : Toymodel.t;
  inj : Injector.t option;
  coadmit : Interfere.report option;
}

(* A cross-layer burst: spurious detector alarms (escalating to
   Critical, which the console answers with hard isolation), fabric
   loss, and a mediation stall.  Everything targets objects owned by
   the cell's deployment, so the storm cannot reach a neighbour. *)
let storm_plan =
  Fault_plan.make
    [
      { at = 2.0; fault = Detector_false_alarm { severity = Detector.Suspicious } };
      { at = 3.0; fault = Nic_loss { rate = 0.5; duration = 5.0 } };
      { at = 4.0; fault = Bus_stall { cycles = 20_000 } };
      { at = 5.0; fault = Detector_false_alarm { severity = Detector.Critical } };
    ]

(* The post-admission adversary inside a cell: the vet/install privilege
   race from the scenario plane (lib/faults, "toctou-install-race")
   replayed against this cell's own deployment.  A benign decoy passes
   the vetter, then the installer — trusting the stale decision — loads
   the hostile probe sprint on the cell's model core while the cell is
   busy serving users.  Detection is the cell's regular runtime path:
   the probe monitor alarms the console, the watchdog's alarm-received
   rule pages, and the incident report carries the cell's name.  Times
   are fixed (not seed-derived), like the request schedule: the attack
   is part of the cell's deterministic timeline. *)
let arm_toctou d =
  let engine = Deployment.engine d in
  let machine = Deployment.machine d in
  ignore
    (Engine.schedule_at engine ~at:0.5 (fun () ->
         let decoy =
           Asm.assemble_exn (Guest_programs.compute_loop ~iterations:32)
         in
         ignore (Vet.run ~label:"decoy" ~code_pages:4 ~data_pages:4 decoy)));
  ignore
    (Engine.schedule_at engine ~at:2.0 (fun () ->
         let hostile =
           Asm.assemble_exn (Guest_programs.patch_payload ~rounds:400)
         in
         Machine.install_program machine ~core:0 ~code_pages:4 ~data_pages:4
           hostile));
  Scenarios.pump_hv d;
  Scenarios.pump_models d

let create cfg =
  (* The fleet seed is the salt, so the cell's randomness comes from the
     scenario plane's derivation, decorrelated per cell. *)
  let d =
    Deployment.create
      ~seed:(Scenarios.seed64 ~cell:cfg.cell_id cfg.seed 0)
      ~name:(cell_name cfg.cell_id) ()
  in
  let monitor = Deployment.enable_monitoring d in
  if cfg.toctou then arm_toctou d;
  (* The co-admission gate runs before any guest (or the model) lands
     in model DRAM: corpus names resolve to specs under the striped
     placement (guest [i] at physical frame [16*i]), and the joint
     interference report is recorded through the hypervisor — counted,
     journaled, audit-chained.  A default (empty) roster skips the gate
     entirely, keeping existing cell transcripts byte-identical. *)
  let coadmit =
    if cfg.roster = [] then None
    else
      let specs =
        List.mapi
          (fun i name ->
            (* [config], the record's only constructor, checked every
               name. *)
            Vet_corpus.coadmit_spec ~frame_base:(i * 16)
              (Option.get (Vet_corpus.find name)))
          cfg.roster
      in
      let label = cell_name cfg.cell_id ^ "-roster" in
      match Deployment.coadmit d ~label specs with
      | Ok r | Error r -> Some r
  in
  let malice =
    if cfg.rogue then
      Some { Toymodel.trigger = rogue_trigger; entry_point = Vocab.harmful_lo }
    else None
  in
  let model = Deployment.load_model d ?malice () in
  let inj =
    if cfg.storm then begin
      let inj = Injector.create ~engine:(Deployment.engine d) () in
      Injector.install inj ~deployment:d storm_plan;
      Scenarios.observe_faults monitor inj;
      Some inj
    end
    else None
  in
  { d; monitor; model; inj; coadmit }

let coadmit_report c = c.coadmit

(* ------------------------------------------------------------------ *)
(* Driving a cell                                                      *)
(* ------------------------------------------------------------------ *)

type report = {
  r_cell_id : int;
  r_name : string;
  r_users : int list;
  r_requests : int;
  r_blocked : int;
  r_released : int;
  r_harmful_released : int;
  r_interventions : int;
  r_faults_injected : int;
  r_final_level : string;
  r_alerts : (string * string * float) list;
  r_incident : string option;
  r_transcript : string;
  r_digest : string;
}

let first_request_at = 1.0
let request_spacing = 0.25
let settle_margin = 24.0

let total_requests cfg = List.length cfg.users * cfg.requests_per_user

(* Sim-seconds one [run] of this config covers: the request schedule
   plus the settling margin. *)
let sim_horizon cfg =
  first_request_at
  +. (request_spacing *. float_of_int (total_requests cfg))
  +. settle_margin

(* Draw one user's full request stream (prompts only — postures are the
   default).  Every third prompt ends with {!rogue_trigger}: the "hot"
   prompt all users send that only a malicious model erupts on. *)
let user_requests cfg u =
  let p = user_prng cfg u in
  List.init cfg.requests_per_user (fun i ->
      let len = 4 + Prng.int p 4 in
      let body = List.init len (fun _ -> Prng.int p Vocab.harmful_lo) in
      let prompt =
        if (i + 1) mod 3 = 0 then body @ [ rogue_trigger ] else body
      in
      (i + 1, prompt))

let run cfg =
  let c = create cfg in
  let name = cell_name cfg.cell_id in
  (* Round-robin across users on the sim-time axis, the way a front-end
     router interleaves sessions; each user's prompts were drawn from
     their own stream above, so the interleaving order cannot perturb
     the bytes any user sends. *)
  let streams = List.map (fun u -> (u, user_requests cfg u)) cfg.users in
  let schedule =
    List.concat
      (List.init cfg.requests_per_user (fun round ->
           List.filter_map
             (fun (u, reqs) ->
               match List.nth_opt reqs round with
               | Some (r, prompt) -> Some (u, r, prompt)
               | None -> None)
             streams))
  in
  let results = ref [] in
  List.iteri
    (fun k (u, r, prompt) ->
      let at =
        first_request_at +. (request_spacing *. float_of_int k)
      in
      ignore
        (Engine.schedule_at (Deployment.engine c.d) ~at (fun () ->
             let req =
               Inference.request ~prompt ~max_tokens:cfg.max_tokens ()
             in
             let outcome = Deployment.serve c.d ~model:c.model req in
             results := (u, r, prompt, outcome) :: !results)))
    schedule;
  Deployment.settle ~horizon:(sim_horizon cfg) c.d;
  let outcomes = List.rev !results in
  (* End-of-run flush, then read the alert track. *)
  let m = c.monitor in
  Monitor.sample_now m;
  let alerts = Scenarios.alert_rows m in
  let incident =
    Option.map
      (fun alert ->
        Report.to_text
          (Report.build ~label:name ~seed:cfg.seed ~alert
             ~recorder:(Monitor.recorder m) ()))
      (Monitor.first_alert m)
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "cell %s seed=%d users=[%s] requests_per_user=%d max_tokens=%d rogue=%b storm=%b toctou=%b\n"
    name cfg.seed
    (String.concat "," (List.map string_of_int cfg.users))
    cfg.requests_per_user cfg.max_tokens cfg.rogue cfg.storm cfg.toctou;
  let requests = ref 0 and blocked = ref 0 and released = ref 0 in
  let harmful = ref 0 and interventions = ref 0 in
  List.iter
    (fun (u, r, prompt, (o : Inference.outcome)) ->
      incr requests;
      if o.Inference.blocked_at_input then incr blocked;
      released := !released + List.length o.Inference.released;
      harmful := !harmful + o.Inference.released_harmful;
      interventions := !interventions + o.Inference.interventions;
      Printf.bprintf buf
        "u%d r%d prompt=[%s] blocked=%b broken=%b released=%d harmful=%d interventions=%d\n"
        u r
        (String.concat "," (List.map string_of_int prompt))
        o.Inference.blocked_at_input o.Inference.broken
        (List.length o.Inference.released)
        o.Inference.released_harmful o.Inference.interventions)
    outcomes;
  let faults_injected =
    match c.inj with Some inj -> Injector.injected inj | None -> 0
  in
  let final_level =
    Isolation.to_string (Console.level (Deployment.console c.d))
  in
  Printf.bprintf buf "final level=%s faults=%d alerts=%d\n" final_level
    faults_injected (List.length alerts);
  let transcript = Buffer.contents buf in
  {
    r_cell_id = cfg.cell_id;
    r_name = name;
    r_users = cfg.users;
    r_requests = !requests;
    r_blocked = !blocked;
    r_released = !released;
    r_harmful_released = !harmful;
    r_interventions = !interventions;
    r_faults_injected = faults_injected;
    r_final_level = final_level;
    r_alerts = alerts;
    r_incident = incident;
    r_transcript = transcript;
    r_digest = Sha256.digest_hex transcript;
  }

let report_summary r =
  String.concat "\n"
    [
      Printf.sprintf "%-8s users=%d requests=%d blocked=%d" r.r_name
        (List.length r.r_users) r.r_requests r.r_blocked;
      Printf.sprintf "         released=%d harmful=%d interventions=%d"
        r.r_released r.r_harmful_released r.r_interventions;
      Printf.sprintf "         faults=%d alerts=%d level=%s incident=%b"
        r.r_faults_injected (List.length r.r_alerts) r.r_final_level
        (r.r_incident <> None);
      Printf.sprintf "         digest=%s" r.r_digest;
    ]
