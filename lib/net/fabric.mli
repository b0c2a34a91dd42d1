(** Simulated network fabric: endpoints addressed by integers, frames
    delivered through the discrete-event engine after 1 ms, with a
    per-frame loss probability that fault injection sets.

    This is the wire under everything network-shaped: NIC devices,
    TLS sessions, attestation exchanges with the regulator's audit
    machine, and the model-to-model communication that Guillotine must
    refuse. *)

type t

val create : ?prng:Guillotine_util.Prng.t -> Guillotine_sim.Engine.t -> t
(** A fabric with 1 ms latency and no loss; [prng] draws the loss,
    duplication and corruption faults. *)

val attach : t -> addr:int -> (src:int -> payload:string -> unit) -> unit
(** Register an endpoint.  Re-attaching an address replaces the handler. *)

val detach : t -> addr:int -> unit
(** Physically unplug: frames to this address are dropped.  This is the
    electromechanical cable disconnect of offline isolation (§3.4). *)

val attached : t -> addr:int -> bool

val send : t -> src:int -> dest:int -> payload:string -> unit
(** Queue a frame for delivery.  Frames to detached or unknown addresses
    vanish (there is no wire). *)

val set_loss : t -> float -> unit
(** Change the per-frame drop probability, in [0,1], mid-run (fault
    injection: a flaky or cut link).  Default 0.  Frames already in
    flight are unaffected. *)

val set_duplication : t -> float -> unit
(** Per-frame probability that an accepted frame is delivered twice
    (fault injection: a misbehaving switch).  Default 0. *)

val set_corruption : t -> float -> unit
(** Per-frame probability that an accepted frame has a bit flipped
    before delivery (fault injection: attestation corruption on the
    wire).  Default 0. *)

val frames_sent : t -> int
val frames_delivered : t -> int
val frames_dropped : t -> int

val metrics : t -> Guillotine_telemetry.Telemetry.snapshot
(** Uniform metrics surface ("fabric"): frame counters plus the
    currently configured loss/duplication/corruption rates as gauges —
    the link-quality view a NOC would scrape from switch port counters.
    A watchdog rule on [link.loss_rate] detects an injected NIC fault
    even when no victim traffic happens to cross the degraded window. *)
