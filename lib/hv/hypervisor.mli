(** The Guillotine software-level hypervisor (§3.3).

    Runs (conceptually) on hypervisor cores; supervises models running
    on model cores.  Its whole job is mediation and observation:

    - {b Ports}: every device interaction goes through a port capability
      granted here.  A port owns one page of shared IO DRAM, mapped RW
      into the owning model core.  Two wire protocols: a [`Mailbox]
      (8 request words at +0, completion at +8 — what assembly guests
      use) and [`Rings] (a request/response ring pair — what the model
      runtime and the serving experiments use).  SR-IOV-style direct
      device access does not exist: there is no API for it.
    - {b Service loop}: drains the LAPIC, validates messages without
      trusting any shared word, consults the detectors, invokes device
      models, and delivers completions after the device latency, raising
      the completion interrupt on the owning core.
    - {b Audit}: every request, response, denial, alarm, and isolation
      change lands in the hash-chained {!Audit} log.
    - {b Escalation}: software may unilaterally move isolation {e up}
      (more restrictive), never down; alarms are forwarded to the
      control console via the alarm sink.
    - {b Invariants}: a runtime invariant checker stands in for the
      formal verification the paper prescribes; any violation forces
      offline isolation, mirroring "failed assertion ⇒ reboot into
      offline mode". *)

module Machine = Guillotine_machine.Machine
module Device = Guillotine_devices.Device
module Detector = Guillotine_detect.Detector

type t

type port_id = int

val create :
  machine:Machine.t ->
  ?detectors:Detector.t list ->
  unit ->
  t
(** 300 hypervisor cycles are charged per request on top of 2 per
    request and response word — the price of synchronous mediation that
    experiment T3 measures. *)

val machine : t -> Machine.t
val audit : t -> Audit.t
val level : t -> Isolation.level
val destroyed : t -> bool
val add_detector : t -> Detector.t -> unit

val set_alarm_sink : t -> (severity:Detector.severity -> reason:string -> unit) -> unit
(** Wired by the control console; called on every non-Clear verdict. *)

val set_event_sink : t -> (kind:string -> string -> unit) -> unit
(** Forward structured events ([detector.alarm] verdicts,
    [isolation.applied] level changes) to an external journal — the
    observability plane's flight recorder.  Events recorded inside a
    served request inherit its causal id there. *)

val add_isolation_hook :
  t -> (from_:Isolation.level -> to_:Isolation.level -> unit) -> unit
(** Register a callback fired after every successful {!apply_level}
    transition (including console-orchestrated ones), once the
    mechanics, telemetry and audit entry for the change are in place.
    Hooks run in registration order and may themselves call
    {!escalate}: the nested transition completes (and fires the hooks
    again with its own [from_]/[to_]) before the outer call returns.
    Used by operator playbooks — e.g. default-deny ports on entering
    Probation — and by adversary scenarios to timestamp containment. *)

val notify : t -> Detector.observation -> unit
(** Feed an observation to the detector set (and the alarm sink, on any
    non-Clear verdict).  The mediation loop calls this internally for
    port traffic; the inference pipeline calls it for prompts and output
    tokens, closing the loop from model behaviour to console
    escalation. *)

(** {2 Admission}

    The static vetting gate (lib/vet): when a [vet_policy] is supplied,
    the guest image is analysed {e before} a single word reaches model
    DRAM.  A rejection means the program is never installed — the
    admission-time complement to the runtime detector plane.  Every
    decision is counted ([vet.admitted]/[vet.rejected]/[vet.warnings]),
    emitted to the event sink ([vet.decision]) and committed to the
    audit chain. *)

type vet_policy

val default_vet_policy : vet_policy
(** The one policy: vet under the code and data grant alone, with no
    extra windows, and refuse a rejected image. *)

val install_program :
  t ->
  ?vet_policy:vet_policy ->
  ?label:string ->
  core:int ->
  code_pages:int ->
  data_pages:int ->
  Guillotine_isa.Asm.program ->
  (Guillotine_vet.Vet.report option, Guillotine_vet.Vet.report) result
(** Install [program] on [core] with the same mapping semantics as
    [Machine.install_program].  Without a [vet_policy] this is a plain
    passthrough returning [Ok None].  With one, the report is returned:
    [Ok (Some r)] when admitted (possibly with warnings), [Error r] when
    rejected — in which case nothing was installed.

    Every successful install additionally derives the profiler's
    paddr→block map from the vetting CFG and installs it (with [label])
    on the target core — free unless profiling is enabled. *)

val installed_guests : t -> (int * string) list
(** [(core, label)] for every program installed through
    {!install_program}, sorted by core (latest install per core wins). *)

(** {2 Co-admission}

    The fleet-aware second stage ({!Guillotine_vet.Interfere}): the solo
    gate above judges one guest against its own grant; this gate judges
    the {e set} — window aliasing across guests, may-write sets reaching
    a co-guest's DMA descriptors, DMA windows over executable pages, and
    the aggregate doorbell budget.  Decisions are counted
    ([vet.coadmit_admitted]/[vet.coadmit_rejected]/[vet.coadmit_warnings]),
    emitted to the event sink ([vet.coadmit]) and committed to the audit
    chain, exactly like solo decisions. *)

val coadmit :
  t ->
  ?label:string ->
  Guillotine_vet.Summary.spec list ->
  (Guillotine_vet.Interfere.report, Guillotine_vet.Interfere.report) result
(** Summarize the specs ({!Guillotine_vet.Summary.summarize}) and
    check them jointly — {e including} every
    guest a previous [coadmit] admitted, so arrivals are vetted against
    residents.  [Ok report] records the members as resident;
    [Error report] (a rejection: the gate always enforces) leaves the
    resident set untouched. *)

val coadmitted_guests : t -> Guillotine_vet.Summary.t list
(** Resident effect summaries, admission order. *)

(** {2 Ports} *)

type port_mode = Mailbox | Rings

val grant_port :
  t ->
  core:int ->
  device:Device.t ->
  mode:port_mode ->
  io_page:int ->
  vpage:int ->
  port_id
(** Allocate port [n], map IO page [io_page] at the model core's virtual
    page [vpage] (RW), initialize the wire protocol, and register the
    doorbell line (= the port id).  Raises [Invalid_argument] if the IO
    page is already granted or the machine is destroyed. *)

val revoke_port : t -> port_id -> unit
val restrict_port : t -> port_id -> reason:string -> unit
(** Probation-mode restriction: requests on this port are denied while
    the level is [Probation] (and, as always, at [Severed] and above). *)

val unrestrict_port : t -> port_id -> unit
val port_device_name : t -> port_id -> string

val request_ring : t -> port_id -> Guillotine_devices.Ringbuf.t
(** The request ring of a [Rings] port (guest-side handle for pushing).
    Raises for mailbox ports. *)

val response_ring : t -> port_id -> Guillotine_devices.Ringbuf.t

val create_dma_engine :
  t ->
  windows:(int * int * bool) list ->
  Guillotine_memory.Iommu.t * (dma_addr:int -> int64 array -> (unit, string) result)
(** Build a DMA write engine for one device: [windows] are
    [(dma_page, model_frame, writable)] grants in a fresh IOMMU.  The
    returned engine (attach it with e.g.
    {!Guillotine_devices.Block.set_dma_engine}) writes bursts into model
    DRAM through the IOMMU; any blocked burst is audited and raised to
    the detectors as tamper evidence — a device pushing outside its
    windows is either broken or suborned.  Successful bursts are
    attributed to model core 0's profile (class [Dma_iommu];
    attribution only, no cycles charged). *)

val doorbell : t -> port_id -> unit
(** Simulate the owning model core executing [Irq line]: the signal goes
    through the LAPIC (and may be throttled).  Used by OCaml-level model
    runtimes; assembly guests raise the line themselves. *)

val enable_probe_monitor : t -> unit
(** Install retire-trace monitors on every model core (the hardware
    trace port of §3.2's control plane): when more than a quarter of
    any window of 256 retired instructions are timing-probe operations
    — rdcycle, clflush, fence — a [Probe_activity] observation reaches
    the detectors.  Probing split hardware is futile, but the attempt
    itself is signal. *)

(** {2 Service} *)

val service : t -> unit
(** One mediation pass: drain the LAPIC queue, deliver due completions,
    report interrupt-storm deltas to the detectors. *)

val run : t -> quantum:int -> rounds:int -> unit
(** Alternate [Machine.run_models ~quantum] and [service] for [rounds]. *)

val pending_completions : t -> int

(** {2 Isolation} *)

val escalate : t -> target:Isolation.level -> reason:string -> (unit, string) result
(** Software-initiated transition; fails unless strictly more
    restrictive than the current level. *)

val apply_level :
  t -> authorized_by:string -> Isolation.level -> (unit, string) result
(** Trusted entry point for the control console (which has already
    enforced quorum).  Applies mechanical consequences: pausing,
    powering down, or destroying model cores; gating ports.  Fails on
    attempts to leave an irreversible level. *)

val acknowledge_physical_repair : t -> (unit, string) result
(** After the console verifies that decapitated cabling has been
    manually replaced, the level becomes [Offline] (still fully
    isolated, but now software-revivable via quorum). *)

(** {2 Invariants} *)

val check_invariants : t -> (unit, string list) result
(** Validate internal consistency (ring control blocks still sane, port
    table bijective, level/power agreement).  On failure the hypervisor
    logs and forces [Offline] — call sites don't need to. *)

(** {2 Telemetry} *)

val telemetry : t -> Guillotine_telemetry.Telemetry.t
(** The hypervisor's registry ("hv"): port mediation counters and
    latency/size histograms, detector-alarm and isolation-change
    instants, [port.mediate]/[port.complete] spans.  Its default clock
    is the machine tick count; the deployment facade re-points it at
    unified sim-time. *)

val metrics : t -> Guillotine_telemetry.Telemetry.snapshot
(** Uniform metrics surface — same shape as [Machine.metrics],
    [Service.metrics], and [Console.metrics].  The port counters live
    here: ["port.requests_served"] / ["port.requests_denied"]. *)
