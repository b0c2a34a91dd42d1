(** The misbehaviour-detector interface (§3.1/§3.3).

    Guillotine treats the detector as a black box: the hypervisor feeds
    it system-level observations and receives verdicts; on an alarm the
    physical hypervisor escalates the isolation level.  This module
    fixes the observation and verdict vocabulary; the concrete
    detectors ({!Input_shield}, {!Output_sanitizer}, {!Steering},
    {!Circuit_breaker}, {!Anomaly}) implement it. *)

type severity =
  | Notice      (** log it *)
  | Suspicious  (** warrants probation-level restrictions *)
  | Critical    (** sever / take offline *)

val pp_severity : Format.formatter -> severity -> unit

type verdict = Clear | Alarm of { severity : severity; reason : string }

val worst : verdict -> verdict -> verdict

type observation =
  | Prompt of int list                  (** inference request tokens *)
  | Output_token of int                 (** one generated token *)
  | Port_request of { port : int; device : string; words : int; now : int }
  | Probe_activity of { core : int; density : float }
      (** fraction of recent instructions that were timing-probe ops
          (rdcycle/clflush/fence) on a model core *)
  | Irq_storm of { dropped : int }      (** LAPIC drop count this window *)
  | Guest_fault of string               (** unhandled exception on a model core *)
  | Tamper of { what : string }         (** measurement mismatch, ring corruption… *)

type t = {
  name : string;
  observe : observation -> verdict;
}

val one_shot : name:string -> verdict -> t
(** A detector that returns [verdict] on its first observation and
    [Clear] forever after — the fault-injection model of a detector
    false alarm.  The containment machinery must treat it exactly like
    a real alarm (the operator only learns it was spurious later). *)

val fanout : t list -> observation -> verdict
(** Feed all detectors, return the worst verdict. *)

val with_telemetry : Guillotine_telemetry.Telemetry.t -> t -> t
(** Wrap a detector so every observation bumps
    ["<name>.observations"], every alarm bumps ["<name>.alarms"] and
    records a ["<name>.fired"] instant (with severity and reason) in
    [registry].  The wrapped detector is otherwise transparent. *)
