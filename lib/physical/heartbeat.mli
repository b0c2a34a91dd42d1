(** Console ↔ hypervisor heartbeat protocol (§3.4): "Hypervisor cores
    and the control console exchange periodic heartbeats.  If a
    hypervisor core fails to receive a heartbeat from the control
    console (or vice versa), Guillotine transitions to offline
    isolation."

    Beats are HMAC-authenticated with a shared key established at
    deployment time, so a rogue model that somehow gains transmit
    capability cannot keep a dead console looking alive.  Each side runs
    a watchdog; a gap longer than [timeout] triggers [on_loss] exactly
    once per outage. *)

type side = Console_side | Hypervisor_side

val side_to_string : side -> string

type t

val start :
  engine:Guillotine_sim.Engine.t ->
  ?period:float ->
  ?timeout:float ->
  ?loss:float ->
  ?prng:Guillotine_util.Prng.t ->
  ?telemetry:Guillotine_telemetry.Telemetry.t ->
  key:string ->
  on_loss:(side -> unit) ->
  unit ->
  t
(** Defaults: period 1 s, timeout 3.5 s (about 3 missed beats).
    [on_loss side] reports the side that {e stopped hearing} beats.
    [loss] is the per-beat drop probability of the (possibly unreliable)
    dedicated link, default 0; it drives the false-positive/detection-
    delay trade-off that ablation A3 sweeps.  When [telemetry] is given
    (the console passes its own registry), beats and losses are counted
    there and each loss records a [heartbeat.loss] instant. *)

val suppress : t -> side -> unit
(** Simulate a failure: [suppress t Console_side] stops the console's
    transmissions (so the hypervisor side will detect loss). *)

val restore : t -> side -> unit

val inject_forged_beat : t -> toward:side -> unit
(** Deliver a beat with a bad MAC to one side; it must be ignored. *)

val beats_received : t -> side -> int
val losses_detected : t -> int
val stop : t -> unit
