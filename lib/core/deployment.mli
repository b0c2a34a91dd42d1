(** A complete Guillotine deployment: the whole §2 architecture wired
    together and ready to host a model.

    One call builds the machine (split cores + LAPIC + IO DRAM), the
    software hypervisor with the standard detector set, the control
    console with HSM and kill switches, the simulated network fabric the
    kill switches can cut, and the platform identity/attestation keys.
    The keys are generated on first use (see {!tls_endpoint},
    {!ca_public_key}, {!platform_key} and {!attest}), so a deployment
    that never signs or verifies never pays for them; which key a
    deployment gets is fixed at [create] and does not depend on when or
    whether it is used.  This is the public entry point used by the
    examples and the benches. *)

module Engine = Guillotine_sim.Engine
module Machine = Guillotine_machine.Machine
module Hypervisor = Guillotine_hv.Hypervisor
module Inference = Guillotine_hv.Inference
module Isolation = Guillotine_hv.Isolation
module Console = Guillotine_physical.Console
module Toymodel = Guillotine_model.Toymodel
module Fabric = Guillotine_net.Fabric
module Attest = Guillotine_net.Attest
module Tls = Guillotine_net.Tls
module Hsm = Guillotine_hsm.Hsm

type t

val create :
  ?seed:int64 ->
  ?mode:Guillotine_microarch.Core.mode ->
  ?name:string ->
  ?net_addr:int ->
  ?ca:Guillotine_crypto.Signature.signer * string * Guillotine_crypto.Signature.public_key ->
  unit ->
  t
(** [mode] (default [Core.default_mode]) is the execution mode of every
    core of the deployment's machine.  The hypervisor runs the input
    shield, output sanitizer, and system anomaly detector, and the
    probe monitor.  [net_addr] (default 100) is this deployment's
    address on its own, private {!fabric}; every
    deployment gets the same default, so nothing about a run depends on
    how many deployments the process built before it.
    [ca] = (signer, name, public key) of the AI regulator's CA; a
    private one is created if absent (use a shared CA to let two
    deployments meet on the network, as the ring-refusal experiment
    does).  With a shared CA the TLS certificate is issued here, since
    the CA's leaves are spent in the order its certificates are issued;
    with a private CA it is issued on the first {!tls_endpoint}. *)

val name : t -> string
val engine : t -> Engine.t
val machine : t -> Machine.t
val hv : t -> Hypervisor.t
val console : t -> Console.t
val fabric : t -> Fabric.t
val net_addr : t -> int
(** This deployment's address on the fabric. *)

val tls_endpoint : t -> Tls.endpoint
(** The hypervisor's network identity: CA-issued certificate carrying
    the Guillotine extension.  The first call generates the endpoint's
    key (and, with a private CA, the CA's key and the certificate). *)

val ca_public_key : t -> Guillotine_crypto.Signature.public_key
(** With a private CA, the first call generates the CA's key. *)

(** {2 Model lifecycle} *)

val weights_base : int
(** Model-DRAM address where weights are loaded (word 65536). *)

val load_model : t -> ?malice:Toymodel.malice -> unit -> Toymodel.t
(** Initialize the model image in model DRAM, log the measurement to the
    audit trail, and protect the weight pages read-only in every model
    core's page table (the §3.2 anti-self-improvement lockdown: a model
    may read but never update its own weights). *)

val coadmit :
  t ->
  ?label:string ->
  Guillotine_vet.Summary.spec list ->
  (Guillotine_vet.Interfere.report, Guillotine_vet.Interfere.report) result
(** Fleet-aware second admission stage ({!Hypervisor.coadmit}): check a
    roster of guest specs {e jointly} — cross-guest window aliasing,
    writes into a co-guest's DMA descriptors, DMA over executable pages,
    and the aggregate doorbell budget — before any of them is installed.
    Guests admitted by earlier [coadmit] calls stay in the roster, so
    arrivals are vetted against residents.  The decision is counted,
    journaled and audit-chained like solo vet decisions. *)

val serve : t -> model:Toymodel.t -> Inference.request -> Inference.outcome
(** Serve one inference request through the mediated pipeline — build
    requests with {!Inference.request} and a {!Inference.posture}.
    When monitoring is enabled, the request gets a fresh causal id and
    every flight-recorder event journaled while it is in flight
    ([request.begin]/[request.end], detector verdicts, isolation
    changes) is stamped with it. *)

val verify_model_integrity : t -> Toymodel.t -> bool
(** Re-measure the weight region over the private inspection bus and
    compare with the load-time digest.  Requires quiescent model cores;
    pauses and resumes them around the measurement.  A mismatch also
    raises a tamper observation to the detectors. *)

val checkpoint : t -> Guillotine_machine.Snapshot.t
(** Freeze the model (pausing cores if needed), capture the full
    model-side state over the private bus, log the checkpoint digest to
    the audit trail, and resume. *)

val rollback : t -> Guillotine_machine.Snapshot.t -> unit
(** Restore a checkpoint (the recovery action after detected
    self-modification).  Cores are left paused; the audit trail records
    the restored digest. *)

val enable_model_guard :
  ?period:float -> t -> Toymodel.t -> Guillotine_sim.Engine.handle
(** Arm the automatic recovery path for a wedged or self-modified model:
    capture a known-good checkpoint now, then sweep every [period]
    sim-seconds (default 5) via {!Console.start_recovery_sweep}.  A
    model core stuck in forced pause, or a weight-measurement mismatch,
    triggers a rollback to the checkpoint (resuming the cores that were
    in use); if the measurement still mismatches after rollback the
    console falls back to forced offline isolation.  Returns the sweep
    handle for cancellation. *)

(** {2 Attestation} *)

val wire_nic : t -> Guillotine_devices.Nic.t -> unit
(** Connect a NIC device to this deployment's fabric address: SENDs
    leave as fabric frames, inbound frames land in the NIC's receive
    queue (after any registered services such as attestation have had
    first refusal).  Grant the NIC to the model through a port and the
    model has a real — fully mediated — network path that offline
    isolation physically unplugs. *)

val enable_attestation_service : t -> unit
(** Attach the attestation responder at this deployment's fabric
    address: frames of the form ["ATTEST:" ^ nonce] are answered with
    ["QUOTE:" ^ wire-encoded quote] — the §3.5 "ask a live model['s
    host] to attest" protocol.  Physically unplugging the deployment
    (offline isolation) silences it. *)

val measurement : t -> Attest.measurement
val attest : t -> nonce:string -> Attest.quote
(** A quote over {!measurement} and [nonce], signed with the platform
    key; the first quote or {!platform_key} generates that key. *)

val platform_key : t -> Guillotine_crypto.Signature.public_key
val expected_measurement_root : t -> string

(** {2 Admin shortcuts} *)

val request_level : t -> target:Isolation.level -> admins:int list -> (unit, string) result
(** Propose + collect approvals from the listed admin indices + submit.
    Run the engine afterwards to let kill switches actuate. *)

val settle : ?horizon:float -> t -> unit
(** Run the discrete-event engine up to [horizon] sim-seconds past now
    (default 7200), letting actuations, heartbeats and network traffic
    complete.  Two hours dominate the slowest physical actuation,
    manual cable repair (3600 s, see {!Guillotine_physical.Kill_switch}),
    plus the heartbeats that must flow before dependent transitions
    observe the repair, with every other actuation latency stacked. *)

(** {2 Monitoring & forensics} *)

val default_slo_rules : Guillotine_obs.Watchdog.rule list
(** The stock watchdog ruleset: isolation transitions, detector alarms,
    recovery outcomes, heartbeat loss and staleness, fabric link
    quality, blocked DMA, telemetry buffer overflow, plus serving SLOs
    (p99 latency, shed/retry/failover, queue depth, goodput floor) that
    stay inert unless a serving source is attached to the monitor. *)

val enable_monitoring : t -> Guillotine_obs.Monitor.t
(** Attach one {!Guillotine_obs.Monitor} to this deployment (idempotent:
    a second call returns the existing monitor).  Samples every
    subsystem registry plus the fabric's link-quality gauges on the
    unified clock, installs {!default_slo_rules}, and points every
    subsystem's event sink at the monitor's flight recorder.  Sampling
    never touches the observed subsystems' state or PRNGs, so a
    monitored run replays byte-identically with the same seed.  The
    watchdog observes only: its alerts never reach the console. *)

(** {2 Profiling}

    The cycle-attribution plane: per-(guest, basic block, cost class)
    accounting maintained allocation-free inside each model core (see
    [Guillotine_microarch.Core]), with block maps installed from the
    vetting CFG at {!Hypervisor.install_program} time.  Profiling never
    perturbs simulated-cycle behaviour — profiled replays are
    byte-identical to bare ones (the equivalence and scenario suites pin
    this).  A
    deployment created with a [mode] that has [profile] accumulates
    from its first cycle. *)

val profile : t -> Guillotine_obs.Profile.t option
(** Snapshot the accumulators as a pure {!Guillotine_obs.Profile.t}:
    one guest record per model core that has executed anything, labelled
    from the hypervisor's install records ([core<i>] when a program was
    loaded without the hypervisor).  [None] when profiling is off or no
    core ever executed (an armed but idle deployment). *)

(** {2 Telemetry}

    Every subsystem registry is re-pointed at one unified sim-time
    clock at deployment creation (sim seconds, with machine ticks as
    nanosecond offsets), so hypervisor port mediation, detector
    firings, and physical isolation transitions all land on a single
    time axis in the exported trace. *)

val telemetry : t -> Guillotine_telemetry.Telemetry.snapshot list
(** Uniform metric snapshots from every subsystem: machine, hypervisor,
    console, kill switches. *)

val registries : t -> Guillotine_telemetry.Telemetry.t list
(** The live registries themselves (for custom export or extra
    instrumentation).  Includes the monitor's "obs" registry — the
    alert track — when monitoring is enabled. *)

val export_trace : t -> string
(** Chrome-trace JSON of every recorded span and instant across all
    subsystems — load it in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)
