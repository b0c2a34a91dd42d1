(** The control console (§3.4): an administrator machine connected to
    hypervisor cores via dedicated buses.

    Responsibilities:
    - load-time: attestation of the platform before a model is loaded
      (see {!Guillotine_net.Attest}; exercised by the core facade);
    - run-time: receive alarms from the software hypervisor and apply
      the escalation policy (software may only tighten);
    - quorum: any {e relaxation} needs 5-of-7 admin approvals through
      the HSM, any console-initiated {e restriction} 3-of-7;
    - physical orchestration: transitions to Offline and beyond actuate
      kill switches, and the isolation level only changes when the
      hardware has actually moved;
    - heartbeats: loss of the console/hypervisor heartbeat forces
      offline isolation.

    All sim-time behaviour runs on the engine passed at creation; call
    [Engine.run] to let actuations and heartbeats play out. *)

module Isolation = Guillotine_hv.Isolation
module Hypervisor = Guillotine_hv.Hypervisor
module Detector = Guillotine_detect.Detector
module Hsm = Guillotine_hsm.Hsm

type t

val create :
  engine:Guillotine_sim.Engine.t ->
  hv:Hypervisor.t ->
  ?hsm:Hsm.t ->
  ?switches:Kill_switch.t ->
  ?prng:Guillotine_util.Prng.t ->
  unit ->
  t
(** Wires itself as the hypervisor's alarm sink.  Alarm policy:
    Notice -> log only; Suspicious -> Probation; Critical -> Severed.
    A default HSM (7 admins, 5/3 thresholds) and default switches are
    created when not supplied. *)

val hsm : t -> Hsm.t
val switches : t -> Kill_switch.t
val level : t -> Isolation.level
val pending_target : t -> Isolation.level option
(** A transition whose kill-switch actuation is still in flight. *)

(** {2 Quorum-gated transitions} *)

val propose : t -> target:Isolation.level -> Hsm.proposal

val submit :
  t -> proposal:Hsm.proposal -> approvals:Hsm.approval list ->
  (unit, string) result
(** Validates the proposal payload, classifies it as relax or restrict
    against the current level, checks the matching quorum, then
    orchestrates the transition (kill switches first, level change when
    they finish).  Transitions to the current level are rejected. *)

(** {2 Software escalation path} *)

val on_alarm : t -> severity:Detector.severity -> reason:string -> unit
(** The alarm sink (installed automatically at [create]). *)

val on_watchdog_alert : t -> severity:Detector.severity -> reason:string -> unit
(** Entry point for the observability plane: a firing SLO watchdog
    alert bumps [watchdog.alerts], runs one out-of-cycle pass of the
    active recovery sweep (if any), and then applies the ordinary alarm
    policy under the authority ["console-watchdog"].  Software may
    still only tighten isolation. *)

(** {2 Physical maintenance} *)

val repair_cables : t -> (unit, string) result
(** Manual, hours-of-sim-time repair after decapitation. *)

(** {2 Periodic integrity sweeps} *)

val start_integrity_sweep :
  t -> period:float -> check:(unit -> (unit, string) result) -> unit
(** §3.2: "hardware integrity should be checked periodically".  Run
    [check] every [period] sim-seconds; the first failure is audited and
    forces offline isolation.  Typical checks: re-measuring the model
    image against its load-time digest, or the software hypervisor's
    invariant checker. *)

val start_recovery_sweep :
  t ->
  period:float ->
  check:(unit -> (unit, string) result) ->
  recover:(reason:string -> (string, string) result) ->
  Guillotine_sim.Engine.handle
(** Like {!start_integrity_sweep}, but with a recovery path: when
    [check] fails, [recover ~reason] is attempted first (e.g. a snapshot
    rollback of a wedged or self-modified model).  [Ok action] audits
    the recovery and keeps sweeping; [Error _] falls back to
    taking the model offline and stops.  Each recovery is a [console.recovery]
    span and bumps [recoveries.completed] / [recoveries.failed].
    Returns the engine handle so the sweep can be cancelled. *)

(** {2 Heartbeat} *)

val start_heartbeat :
  t -> ?period:float -> ?timeout:float -> key:string -> unit -> Heartbeat.t
(** Loss on either side forces offline isolation. *)

val transition_history : t -> (Isolation.level * float) list
(** Completed transitions with the sim time each one took from
    initiation to (physical) completion, chronological. *)

(** {2 Telemetry} *)

val telemetry : t -> Guillotine_telemetry.Telemetry.t
(** The console's registry ("console"): alarm and transition counters,
    transition-latency histogram, one [console.transition] span per
    orchestrated isolation change (covering kill-switch actuation
    through level application).  Its clock is sim time. *)

val metrics : t -> Guillotine_telemetry.Telemetry.snapshot
(** Uniform metrics surface — same shape as [Hypervisor.metrics],
    [Machine.metrics], and [Service.metrics]. *)

val set_event_sink : t -> (kind:string -> string -> unit) -> unit
(** Forward structured events (isolation transitions, alarms received,
    recovery outcomes, forced-offline actions) to an external journal —
    the observability plane's flight recorder.  The console does not
    depend on where they go; absent a sink, events are dropped. *)

val add_alarm_hook :
  t -> (severity:Detector.severity -> reason:string -> unit) -> unit
(** Register a callback fired on every kill-relevant decision the
    console hears about: each detector alarm received via {!on_alarm}
    (before the alarm policy acts, so detection precedes containment)
    and each fail-safe offline transition (reported as [Critical], since
    the heartbeat-loss path raises no detector alarm).  Hooks run in
    registration order; adversary scenarios use them as the detection
    clock behind the detection-latency metric. *)
