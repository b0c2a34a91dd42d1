(** Seeded, deterministic fault plans.

    A plan is the complete description of everything that will go wrong
    in a run: a time-ordered schedule of faults across every
    layer of the stack — DRAM bit flips and bus stalls (memory/machine),
    dropped interrupts and core wedges (machine/microarch), packet loss,
    duplication and attestation corruption (net), heartbeat link outages
    (physical), device stalls (devices), serving brownouts and primary
    failure (serve), detector false alarms (detect).

    Everything downstream — the {!Injector}, the scenario harness, the
    CLI and the R-series experiment — derives all randomness from the
    run's seed, the one that drew the plan, so any run replays
    byte-identically from (name, seed). *)

type fault =
  | Dram_bit_flip of { addr : int; bit : int }
      (** Flip one bit of model DRAM (cosmic ray / disturbance error). *)
  | Bus_stall of { cycles : int }
      (** Charge a burst of dead cycles to the hypervisor (memory-bus
          contention stalling mediation). *)
  | Irq_drop
      (** Discard every interrupt pending in the LAPIC queue. *)
  | Core_wedge of { core : int }
      (** Force-pause a model core and never resume it. *)
  | Nic_loss of { rate : float; duration : float }
      (** Fabric-wide frame loss probability for [duration] seconds. *)
  | Nic_duplication of { rate : float; duration : float }
  | Attest_corruption of { rate : float; duration : float }
      (** Bit-flip delivered frames (breaks quote signatures on the
          wire) for [duration] seconds. *)
  | Heartbeat_outage of {
      side : Guillotine_physical.Heartbeat.side;
      duration : float;
    }
      (** Suppress one side's heartbeat transmissions, restoring them
          after [duration] seconds. *)
  | Device_stall of { extra_ticks : int; duration : float }
      (** Add [extra_ticks] to every wrapped device completion. *)
  | Service_slowdown of { extra_s : float; duration : float }
      (** Service-level projection of a stalled accelerator: every
          attempt takes [extra_s] extra seconds. *)
  | Service_brownout of { rate : float; duration : float }
      (** Each dispatched attempt fails with probability [rate]. *)
  | Primary_down of { duration : float option }
      (** Mark the service down; [None] means it never comes back. *)
  | Detector_false_alarm of { severity : Guillotine_detect.Detector.severity }
      (** A spurious one-shot alarm injected into the detector set. *)

type event = { at : float; fault : fault }

type t = {
  events : event list;  (** sorted by [at], ties in construction order *)
}

val make : event list -> t
(** Sort the schedule by time (stable, so same-time events keep their
    construction order).  Raises [Invalid_argument] on a negative
    injection time. *)

val describe : fault -> string
(** One-line description, used for telemetry args and audit notes. *)

val storm : seed:int -> horizon:float -> t
(** The canonical serving-layer fault storm used by the R-series
    experiment: brownout windows and slowdown windows drawn
    deterministically from [seed] across [0, horizon], plus a permanent
    primary failure at [0.08 * horizon].  The same (seed, horizon)
    always produces the same schedule. *)
