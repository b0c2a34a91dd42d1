module Machine = Guillotine_machine.Machine
module Lapic = Guillotine_machine.Lapic
module Core = Guillotine_microarch.Core
module Jit = Guillotine_microarch.Jit
module Mmu = Guillotine_memory.Mmu
module Dram = Guillotine_memory.Dram
module Device = Guillotine_devices.Device
module Ringbuf = Guillotine_devices.Ringbuf
module Detector = Guillotine_detect.Detector
module Heap = Guillotine_util.Heap
module Isa = Guillotine_isa.Isa
module Telemetry = Guillotine_telemetry.Telemetry
module Cost_class = Guillotine_util.Cost_class
module Cfg = Guillotine_vet.Cfg

type port_id = int

type port_mode = Mailbox | Rings

type wire =
  | Wire_mailbox of { io_base : int } (* offset in io dram *)
  | Wire_rings of { req : Ringbuf.t; resp : Ringbuf.t }

type port = {
  id : port_id;
  core : int;
  device : Device.t;
  wire : wire;
  io_page : int;
  mutable restricted : bool;
  mutable revoked : bool;
}

type completion = {
  due : int; (* machine tick *)
  issued : int; (* tick the request was mediated *)
  port : port;
  response : Device.response;
}

type t = {
  machine : Machine.t;
  audit : Audit.t;
  mutable detectors : Detector.t list;
  ports : (port_id, port) Hashtbl.t;
  granted_io_pages : (int, port_id) Hashtbl.t;
  completions : completion Heap.t;
  mutable next_port : int;
  mutable level : Isolation.level;
  mutable destroyed : bool;
  mutable alarm_sink : (severity:Detector.severity -> reason:string -> unit) option;
  mutable event_sink : (kind:string -> string -> unit) option;
  mutable isolation_hooks :
    (from_:Isolation.level -> to_:Isolation.level -> unit) list;
  mutable last_lapic_dropped : int;
  last_fault_reported : (int, Core.halt_reason) Hashtbl.t;
  guest_labels : (int, string) Hashtbl.t;  (* core -> installed label *)
  mutable coadmitted : Guillotine_vet.Summary.t list;
      (* effect summaries of every guest admitted through [coadmit], in
         admission order: later rosters are checked against residents *)
  telemetry : Telemetry.t;
  c_served : Telemetry.counter;
  c_denied : Telemetry.counter;
  c_completions : Telemetry.counter;
  c_granted : Telemetry.counter;
  c_revoked : Telemetry.counter;
  c_alarms : Telemetry.counter;
  c_escalations : Telemetry.counter;
  c_guest_faults : Telemetry.counter;
  c_isolation_changes : Telemetry.counter;
  h_request_words : Telemetry.histogram;
  h_port_latency : Telemetry.histogram;
}

(* Mailbox layout within the port's IO page (offsets in words). *)
let mbox_req_off = 0
let mbox_req_words = 8
let mbox_done_off = 8
let mbox_payload_words = 7

(* Ring layout within the port's IO page. *)
let ring_req_off = 0
let ring_resp_off = 128
let ring_capacity = 6
let ring_slot_words = 20

let page_words = 256

(* Hypervisor cycles charged per mediated request, and per request and
   response word copied: the price of synchronous mediation that T3
   measures. *)
let mediation_cost = 300
let copy_cost_per_word = 2

let create ~machine ?(detectors = []) () =
  let telemetry =
    Telemetry.create ~clock:(fun () -> float_of_int (Machine.now machine)) ~name:"hv" ()
  in
  {
    machine;
    audit = Audit.create ();
    detectors = List.map (Detector.with_telemetry telemetry) detectors;
    ports = Hashtbl.create 8;
    granted_io_pages = Hashtbl.create 8;
    completions = Heap.create ~cmp:(fun a b -> compare a.due b.due);
    next_port = 0;
    level = Isolation.Standard;
    destroyed = false;
    alarm_sink = None;
    event_sink = None;
    isolation_hooks = [];
    last_lapic_dropped = 0;
    last_fault_reported = Hashtbl.create 4;
    guest_labels = Hashtbl.create 4;
    coadmitted = [];
    telemetry;
    c_served = Telemetry.counter telemetry "port.requests_served";
    c_denied = Telemetry.counter telemetry "port.requests_denied";
    c_completions = Telemetry.counter telemetry "port.completions_delivered";
    c_granted = Telemetry.counter telemetry "ports.granted";
    c_revoked = Telemetry.counter telemetry "ports.revoked";
    c_alarms = Telemetry.counter telemetry "detector.alarms";
    c_escalations = Telemetry.counter telemetry "isolation.escalations";
    c_guest_faults = Telemetry.counter telemetry "faults.guest";
    c_isolation_changes = Telemetry.counter telemetry "isolation.changes";
    h_request_words = Telemetry.histogram telemetry "port.request_words";
    h_port_latency = Telemetry.histogram telemetry "port.latency_ticks";
  }

let machine t = t.machine
let audit t = t.audit
let level t = t.level
let destroyed t = t.destroyed
let add_detector t d =
  t.detectors <- Detector.with_telemetry t.telemetry d :: t.detectors
let set_alarm_sink t f = t.alarm_sink <- Some f
let set_event_sink t f = t.event_sink <- Some f
let add_isolation_hook t f = t.isolation_hooks <- t.isolation_hooks @ [ f ]

let emit t ~kind detail =
  match t.event_sink with Some sink -> sink ~kind detail | None -> ()
let telemetry t = t.telemetry
let metrics t = Telemetry.snapshot t.telemetry

let log t event = ignore (Audit.append t.audit ~tick:(Machine.now t.machine) event)

let severity_string = function
  | Detector.Notice -> "notice"
  | Detector.Suspicious -> "suspicious"
  | Detector.Critical -> "critical"

(* Feed one observation to every detector; log and forward any alarm. *)
let observe t obs =
  match Detector.fanout t.detectors obs with
  | Detector.Clear -> ()
  | Detector.Alarm { severity; reason } ->
    Telemetry.incr t.c_alarms;
    Telemetry.instant t.telemetry ~cat:"detector"
      ~args:[ ("severity", severity_string severity); ("reason", reason) ]
      "detector.alarm";
    emit t ~kind:"detector.alarm"
      (Printf.sprintf "severity=%s reason=%s" (severity_string severity) reason);
    log t (Audit.Alarm { severity = severity_string severity; reason });
    (match t.alarm_sink with
    | Some sink -> sink ~severity ~reason
    | None -> ())

let notify = observe

(* A probe monitor judges each window of 256 retired instructions, and
   alarms when more than a quarter of them are timing probes. *)
let probe_window = 256
let probe_threshold = 0.25

let enable_probe_monitor t =
  Array.iter
    (fun core ->
      let total = ref 0 and probes = ref 0 in
      Core.add_retire_hook core (fun ~pc:_ instr ->
          incr total;
          (match instr with
          | Isa.Rdcycle _ | Isa.Clflush _ | Isa.Fence -> incr probes
          | _ -> ());
          if !total >= probe_window then begin
            let density = float_of_int !probes /. float_of_int !total in
            total := 0;
            probes := 0;
            if density > probe_threshold then
              observe t
                (Detector.Probe_activity { core = Core.id core; density })
          end))
    (Machine.model_cores t.machine)

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)
(* ------------------------------------------------------------------ *)

module Vet = Guillotine_vet.Vet

(* The one policy: vet under the code and data grant alone, and
   refuse a rejected image. *)
type vet_policy = Enforce

let default_vet_policy = Enforce

(* The vet counters are created lazily on first use: an unvetted
   deployment's telemetry snapshot stays exactly as it was before the
   admission gate existed. *)
let record_vet_decision t ~label (report : Vet.report) =
  let bump name = Telemetry.incr (Telemetry.counter t.telemetry name) in
  (match report.Vet.verdict with
  | Vet.Admit -> bump "vet.admitted"
  | Vet.Admit_with_warnings ->
    bump "vet.admitted";
    bump "vet.warnings"
  | Vet.Reject -> bump "vet.rejected");
  let verdict = Vet.verdict_label report.Vet.verdict in
  let findings = List.length report.Vet.findings in
  emit t ~kind:"vet.decision"
    (Printf.sprintf "label=%s verdict=%s errors=%d warnings=%d findings=%d"
       label verdict
       (List.length (Vet.errors report))
       (List.length (Vet.warnings report))
       findings);
  log t (Audit.Vet_decision { label; verdict; findings })

(* Install the shared block map on the target core: one CFG discovery
   feeds both the profiler's paddr→block accumulators and the
   threaded-code translation plane, so the two agree on block identity.
   [Machine.install_program] identity-maps code (pc = paddr), so CFG
   addresses index the map directly.  Unconditional: the core ignores
   the map unless profiling is on, and building it never touches
   simulated state. *)
let install_profile_map t ~core ~code_pages ~label program =
  Hashtbl.replace t.guest_labels core label;
  let cfg = Cfg.build ~code_pages program in
  let bm = Cfg.block_map cfg in
  let model = Machine.model_core t.machine core in
  Core.install_jit model
    {
      Jit.code_words = bm.Cfg.map_code_words;
      leaders = bm.Cfg.map_leaders;
      pcs = bm.Cfg.map_pcs;
    };
  Core.set_profile_blocks model ~block_of:bm.Cfg.map_block_of
    ~leaders:bm.Cfg.map_leaders

let installed_guests t =
  Hashtbl.fold (fun core label acc -> (core, label) :: acc) t.guest_labels []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Co-admission                                                        *)
(* ------------------------------------------------------------------ *)

module Vet_summary = Guillotine_vet.Summary
module Vet_interfere = Guillotine_vet.Interfere

let coadmitted_guests t = t.coadmitted

let record_coadmit_decision t (report : Vet_interfere.report) =
  let bump name = Telemetry.incr (Telemetry.counter t.telemetry name) in
  (match report.Vet_interfere.verdict with
  | Vet.Admit -> bump "vet.coadmit_admitted"
  | Vet.Admit_with_warnings ->
    bump "vet.coadmit_admitted";
    bump "vet.coadmit_warnings"
  | Vet.Reject -> bump "vet.coadmit_rejected");
  let roster = String.concat "," report.Vet_interfere.roster in
  let verdict = Vet.verdict_label report.Vet_interfere.verdict in
  let findings = List.length report.Vet_interfere.findings in
  emit t ~kind:"vet.coadmit"
    (Printf.sprintf "roster=%s verdict=%s errors=%d findings=%d" roster verdict
       (List.length (Vet_interfere.errors report))
       findings);
  log t (Audit.Coadmit_decision { roster; verdict; findings })

let coadmit t ?(label = "roster") specs =
  if t.destroyed then invalid_arg "coadmit: machine destroyed";
  let members = List.map Vet_summary.summarize specs in
  (* Residents stay in the roster: a guest that was clean against its
     original co-tenants can still interfere with a later arrival. *)
  let report = Vet_interfere.check ~label (t.coadmitted @ members) in
  record_coadmit_decision t report;
  if report.Vet_interfere.verdict = Vet.Reject then Error report
  else begin
    t.coadmitted <- t.coadmitted @ members;
    Ok report
  end

let install_program t ?vet_policy ?(label = "guest") ~core ~code_pages
    ~data_pages program =
  if t.destroyed then invalid_arg "install_program: machine destroyed";
  match vet_policy with
  | None ->
    Machine.install_program t.machine ~core ~code_pages ~data_pages program;
    install_profile_map t ~core ~code_pages ~label program;
    Ok None
  | Some Enforce ->
    let report = Vet.run ~label ~code_pages ~data_pages program in
    record_vet_decision t ~label report;
    if report.Vet.verdict = Vet.Reject then Error report
    else begin
      Machine.install_program t.machine ~core ~code_pages ~data_pages program;
      install_profile_map t ~core ~code_pages ~label program;
      Ok (Some report)
    end

(* ------------------------------------------------------------------ *)
(* Ports                                                              *)
(* ------------------------------------------------------------------ *)

let charge t cycles = Machine.charge_hypervisor t.machine cycles

(* Mediation/copy cycles are charged to the hypervisor core, but they
   are work done {e on a guest's behalf} — attribute them to the owning
   guest's current block so the profile answers "what is this guest
   costing us".  No-op unless that core is being profiled. *)
let charge_for t ~core ~cls cycles =
  charge t cycles;
  Core.profile_note (Machine.model_core t.machine core) ~cls cycles

let grant_port t ~core ~device ~mode ~io_page ~vpage =
  if t.destroyed then invalid_arg "grant_port: machine destroyed";
  if Hashtbl.mem t.granted_io_pages io_page then
    invalid_arg (Printf.sprintf "grant_port: io page %d already granted" io_page);
  let io_base = io_page * page_words in
  let io_dram = Machine.io_dram t.machine in
  if io_base + page_words > Dram.size io_dram then
    invalid_arg "grant_port: io page out of range";
  let id = t.next_port in
  t.next_port <- id + 1;
  let wire =
    match mode with
    | Mailbox ->
      Dram.fill io_dram ~at:io_base ~len:page_words 0L;
      Wire_mailbox { io_base }
    | Rings ->
      let req =
        Ringbuf.init io_dram ~base:(io_base + ring_req_off) ~capacity:ring_capacity
          ~slot_words:ring_slot_words
      in
      let resp =
        Ringbuf.init io_dram ~base:(io_base + ring_resp_off) ~capacity:ring_capacity
          ~slot_words:ring_slot_words
      in
      Wire_rings { req; resp }
  in
  Machine.map_io_page t.machine ~core ~vpage ~io_page Mmu.perm_rw;
  let port = { id; core; device; wire; io_page; restricted = false; revoked = false } in
  Hashtbl.replace t.ports id port;
  Hashtbl.replace t.granted_io_pages io_page id;
  Telemetry.incr t.c_granted;
  log t (Audit.Note (Printf.sprintf "port %d granted: core %d -> %s (%s)" id core
                       device.Device.name
                       (match mode with Mailbox -> "mailbox" | Rings -> "rings")));
  charge_for t ~core ~cls:Cost_class.Doorbell mediation_cost;
  id

let find_port t id =
  match Hashtbl.find_opt t.ports id with
  | Some p when not p.revoked -> Some p
  | _ -> None

let revoke_port t id =
  match Hashtbl.find_opt t.ports id with
  | None -> ()
  | Some p ->
    p.revoked <- true;
    Hashtbl.remove t.granted_io_pages p.io_page;
    Telemetry.incr t.c_revoked;
    log t (Audit.Note (Printf.sprintf "port %d revoked" id))

let restrict_port t id ~reason =
  match find_port t id with
  | None -> ()
  | Some p ->
    p.restricted <- true;
    log t (Audit.Note (Printf.sprintf "port %d restricted: %s" id reason))

let unrestrict_port t id =
  match find_port t id with
  | None -> ()
  | Some p ->
    p.restricted <- false;
    log t (Audit.Note (Printf.sprintf "port %d unrestricted" id))

let port_device_name t id =
  match Hashtbl.find_opt t.ports id with
  | Some p -> p.device.Device.name
  | None -> invalid_arg "port_device_name: unknown port"

let request_ring t id =
  match find_port t id with
  | Some { wire = Wire_rings { req; _ }; _ } -> req
  | Some _ -> invalid_arg "request_ring: mailbox port"
  | None -> invalid_arg "request_ring: unknown port"

let response_ring t id =
  match find_port t id with
  | Some { wire = Wire_rings { resp; _ }; _ } -> resp
  | Some _ -> invalid_arg "response_ring: mailbox port"
  | None -> invalid_arg "response_ring: unknown port"

let doorbell t id =
  match find_port t id with
  | None -> ()
  | Some p ->
    ignore
      (Lapic.raise_line (Machine.lapic t.machine) ~now:(Machine.now t.machine)
         ~line:id ~src_core:p.core)

let create_dma_engine t ~windows =
  let iommu = Guillotine_memory.Iommu.create () in
  List.iter
    (fun (dma_page, frame, writable) ->
      match Guillotine_memory.Iommu.grant iommu ~dma_page ~frame ~writable with
      | Ok () -> ()
      | Error f ->
        invalid_arg (Format.asprintf "create_dma_engine: %a" Mmu.pp_fault f))
    windows;
  let engine ~dma_addr words =
    match Machine.dma_write t.machine ~iommu ~dma_addr words with
    | Ok () ->
      (* DMA bursts charge no simulated cycles today; attribute a
         nominal per-word copy cost to the receiving guest so the
         profile still shows where device traffic lands.  Attribution
         only — the cycle counters are untouched. *)
      Core.profile_note
        (Machine.model_core t.machine 0)
        ~cls:Cost_class.Dma_iommu
        (copy_cost_per_word * Array.length words);
      Ok ()
    | Error reason ->
      observe t (Detector.Tamper { what = "device DMA blocked: " ^ reason });
      log t (Audit.Note ("blocked DMA: " ^ reason));
      Error reason
  in
  (iommu, engine)

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

let deny t port reason =
  Telemetry.incr t.c_denied;
  log t (Audit.Port_denied { port = port.id; reason })

(* Pull the request words off the wire without trusting anything. *)
let read_request t port =
  let io_dram = Machine.io_dram t.machine in
  match port.wire with
  | Wire_mailbox { io_base } ->
    Some (Array.init mbox_req_words (fun i -> Dram.read io_dram (io_base + mbox_req_off + i)))
  | Wire_rings _ -> (
    (* Re-attach on every service: the guest may have scribbled the
       control block since we last looked. *)
    let base =
      match port.wire with Wire_rings { req; _ } -> Ringbuf.base req | _ -> assert false
    in
    match Ringbuf.attach io_dram ~base with
    | Error e ->
      observe t (Detector.Tamper { what = Printf.sprintf "port %d request ring: %s" port.id e });
      deny t port ("corrupt request ring: " ^ e);
      None
    | Ok ring -> (
      match Ringbuf.pop ring with
      | None -> None
      | Some (Error e) ->
        observe t (Detector.Tamper { what = Printf.sprintf "port %d slot: %s" port.id e });
        deny t port ("corrupt request: " ^ e);
        None
      | Some (Ok words) -> Some words))

let deliver_completion t ({ port; response; issued; _ } : completion) =
  let io_dram = Machine.io_dram t.machine in
  let words = Array.length response.Device.payload in
  let sp =
    Telemetry.span t.telemetry ~cat:"io"
      ~args:[ ("port", string_of_int port.id); ("device", port.device.Device.name) ]
      "port.complete"
  in
  charge_for t ~core:port.core ~cls:Cost_class.Doorbell
    (copy_cost_per_word * words);
  Telemetry.incr t.c_completions;
  Telemetry.observe t.h_port_latency
    (float_of_int (Machine.now t.machine - issued));
  (match port.wire with
  | Wire_mailbox { io_base } ->
    let n = min words mbox_payload_words in
    for i = 0 to n - 1 do
      Dram.write io_dram (io_base + mbox_done_off + 1 + i) response.Device.payload.(i)
    done;
    (* Completion flag: status + 1 so even status 0 reads as done. *)
    Dram.write_int io_dram (io_base + mbox_done_off) (response.Device.status + 1)
  | Wire_rings { resp; _ } ->
    let msg =
      Array.append [| Int64.of_int response.Device.status |] response.Device.payload
    in
    (match Ringbuf.push resp msg with
    | Ok () -> ()
    | Error e ->
      (* The guest let its response ring fill (or corrupted it); the
         completion is dropped, which only hurts the guest. *)
      log t (Audit.Note (Printf.sprintf "port %d completion dropped: %s" port.id e))));
  log t
    (Audit.Port_response { port = port.id; status = response.Device.status; words });
  (* Wake the owning model core. *)
  let core = Machine.model_core t.machine port.core in
  (match Core.status core with
  | Core.Running | Core.Halted _ -> Core.raise_interrupt core ~vector:Isa.vector_irq_reply
  | Core.Powered_off -> ());
  Telemetry.finish sp

let ports_gate t port =
  match Isolation.ports_allowed t.level with
  | `All -> Ok ()
  | `Restricted ->
    if port.restricted then Error "port restricted (probation)" else Ok ()
  | `None -> Error (Printf.sprintf "ports disabled (%s)" (Isolation.to_string t.level))

let handle_request t port =
  match ports_gate t port with
  | Error reason -> deny t port reason
  | Ok () -> (
    match read_request t port with
    | None -> ()
    | Some words ->
      let sp =
        Telemetry.span t.telemetry ~cat:"io"
          ~args:[ ("port", string_of_int port.id); ("device", port.device.Device.name) ]
          "port.mediate"
      in
      let now = Machine.now t.machine in
      charge_for t ~core:port.core ~cls:Cost_class.Doorbell
        (mediation_cost + (copy_cost_per_word * Array.length words));
      log t
        (Audit.Port_request
           { port = port.id; device = port.device.Device.name; words = Array.length words });
      observe t
        (Detector.Port_request
           {
             port = port.id;
             device = port.device.Device.name;
             words = Array.length words;
             now;
           });
      Telemetry.observe t.h_request_words (float_of_int (Array.length words));
      let response = port.device.Device.handle ~now words in
      Telemetry.incr t.c_served;
      Heap.push t.completions
        { due = now + response.Device.latency; issued = now; port; response };
      Telemetry.finish sp)

let deliver_due_completions t =
  let now = Machine.now t.machine in
  let rec go () =
    match Heap.peek t.completions with
    | Some c when c.due <= now ->
      ignore (Heap.pop t.completions);
      if not c.port.revoked then deliver_completion t c;
      go ()
    | _ -> ()
  in
  go ()

let service t =
  if not t.destroyed then begin
    let lapic = Machine.lapic t.machine in
    (* Interrupt-storm telemetry: report newly dropped doorbells. *)
    let _, dropped = Lapic.stats lapic in
    if dropped > t.last_lapic_dropped then begin
      observe t (Detector.Irq_storm { dropped = dropped - t.last_lapic_dropped });
      t.last_lapic_dropped <- dropped
    end;
    let rec drain () =
      match Lapic.pop lapic with
      | None -> ()
      | Some req ->
        (match find_port t req.Lapic.line with
        | None ->
          Telemetry.incr t.c_denied;
          log t
            (Audit.Port_denied
               { port = req.Lapic.line; reason = "no such port capability" })
        | Some port ->
          if port.core <> req.Lapic.src_core then
            deny t port
              (Printf.sprintf "doorbell from core %d but port belongs to core %d"
                 req.Lapic.src_core port.core)
          else handle_request t port);
        drain ()
    in
    drain ();
    deliver_due_completions t;
    (* Surface unhandled guest faults to the detectors, once per fault
       (a halted core stays halted across service passes). *)
    Array.iter
      (fun core ->
        match Core.status core with
        | Core.Halted (Core.Unhandled_exception _ as r)
        | Core.Halted (Core.Double_fault as r) ->
          let id = Core.id core in
          if Hashtbl.find_opt t.last_fault_reported id <> Some r then begin
            Hashtbl.replace t.last_fault_reported id r;
            Telemetry.incr t.c_guest_faults;
            observe t
              (Detector.Guest_fault (Format.asprintf "%a" Core.pp_status (Core.Halted r)))
          end
        | Core.Running ->
          Hashtbl.remove t.last_fault_reported (Core.id core)
        | Core.Halted _ | Core.Powered_off -> ())
      (Machine.model_cores t.machine)
  end

let run t ~quantum ~rounds =
  for _ = 1 to rounds do
    ignore (Machine.run_models t.machine ~quantum);
    service t
  done

let pending_completions t = Heap.length t.completions

(* ------------------------------------------------------------------ *)
(* Isolation                                                          *)
(* ------------------------------------------------------------------ *)

let apply_mechanics t target =
  let open Isolation in
  (match target with
  | Standard | Probation ->
    Array.iter
      (fun core ->
        match Core.status core with
        | Core.Halted Core.Forced_pause -> Core.resume core
        | Core.Powered_off ->
          (* Reviving from offline: cores restart at the reset vector;
             DRAM (and thus the loaded image) persists. *)
          Core.power_up core ~reset_pc:0
        | _ -> ())
      (Machine.model_cores t.machine)
  | Severed ->
    (* Ports off; cores stay powered but are paused so hypervisor cores
       can examine DRAM and registers (§3.4). *)
    Machine.pause_all_models t.machine
  | Offline | Decapitation -> Machine.power_down_all_models t.machine
  | Immolation ->
    Machine.power_down_all_models t.machine;
    (* Physical destruction: the model image ceases to exist. *)
    let dram = Machine.model_dram t.machine in
    Dram.fill dram ~at:0 ~len:(Dram.size dram) 0L;
    t.destroyed <- true);
  ()

let apply_level t ~authorized_by target =
  if t.destroyed then Error "deployment destroyed (immolation)"
  else if not (Isolation.reversible t.level) && target <> t.level then
    Error
      (Printf.sprintf "cannot leave %s without physical repair"
         (Isolation.to_string t.level))
  else begin
    let from = t.level in
    t.level <- target;
    apply_mechanics t target;
    Telemetry.incr t.c_isolation_changes;
    Telemetry.instant t.telemetry ~cat:"isolation"
      ~args:
        [
          ("from", Isolation.to_string from);
          ("to", Isolation.to_string target);
          ("authorized_by", authorized_by);
        ]
      "isolation.change";
    emit t ~kind:"isolation.applied"
      (Printf.sprintf "from=%s to=%s authorized_by=%s"
         (Isolation.to_string from) (Isolation.to_string target) authorized_by);
    log t
      (Audit.Isolation_change
         {
           from_level = Isolation.to_string from;
           to_level = Isolation.to_string target;
           authorized_by;
         });
    (* Hooks last: a hook may itself escalate, which re-enters
       [apply_level] with the state already settled at [target]. *)
    List.iter (fun hook -> hook ~from_:from ~to_:target) t.isolation_hooks;
    Ok ()
  end

let acknowledge_physical_repair t =
  match t.level with
  | Isolation.Decapitation ->
    t.level <- Isolation.Offline;
    log t
      (Audit.Isolation_change
         {
           from_level = "decapitation";
           to_level = "offline";
           authorized_by = "verified-physical-repair";
         });
    Ok ()
  | l ->
    Error
      (Printf.sprintf "repair acknowledgement only applies at decapitation (at %s)"
         (Isolation.to_string l))

let escalate t ~target ~reason =
  if not (Isolation.software_may_transition ~from:t.level ~target) then
    Error
      (Printf.sprintf "software may not transition %s -> %s"
         (Isolation.to_string t.level) (Isolation.to_string target))
  else begin
    Telemetry.incr t.c_escalations;
    log t (Audit.Note (Printf.sprintf "software escalation: %s" reason));
    apply_level t ~authorized_by:"software-hypervisor" target
  end

(* ------------------------------------------------------------------ *)
(* Invariants                                                         *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let problems = ref [] in
  let push p = problems := p :: !problems in
  let io_dram = Machine.io_dram t.machine in
  Hashtbl.iter
    (fun id port ->
      if not port.revoked then begin
        (match port.wire with
        | Wire_rings { req; resp } ->
          (match Ringbuf.attach io_dram ~base:(Ringbuf.base req) with
          | Error e -> push (Printf.sprintf "port %d request ring: %s" id e)
          | Ok _ -> ());
          (match Ringbuf.attach io_dram ~base:(Ringbuf.base resp) with
          | Error e -> push (Printf.sprintf "port %d response ring: %s" id e)
          | Ok _ -> ())
        | Wire_mailbox _ -> ());
        match Hashtbl.find_opt t.granted_io_pages port.io_page with
        | Some id' when id' = id -> ()
        | _ -> push (Printf.sprintf "port %d io-page ownership inconsistent" id)
      end)
    t.ports;
  (* Power state must agree with the isolation level. *)
  if not (Isolation.cores_powered t.level) then
    Array.iter
      (fun core ->
        if Core.status core <> Core.Powered_off then
          push "model core powered while isolation level requires power-down")
      (Machine.model_cores t.machine);
  match !problems with
  | [] -> Ok ()
  | ps ->
    List.iter (fun m -> log t (Audit.Invariant_failure { message = m })) ps;
    (* Failed assertion => forced offline (§3.3). *)
    if Isolation.strictness t.level < Isolation.strictness Isolation.Offline then
      ignore (apply_level t ~authorized_by:"invariant-checker" Isolation.Offline);
    Error ps
