(** Electromechanical kill switches (§3.4): the physical means behind
    isolation levels 4-6.

    Each actuation takes real (simulated) time — relays close, halon
    dumps, cable cutters fire — and the state model enforces physical
    reality: decapitated cables cannot be re-plugged by software, and an
    immolated datacenter stays immolated.

    Actuation latencies (seconds): network disconnect 0.5, power cut
    2.0, reconnect 5.0, power-on 10.0, decapitation 1.0, cable repair
    (manual) 3600, immolation 30. *)

type cable_state = Connected | Disconnected | Destroyed

type t

val create :
  engine:Guillotine_sim.Engine.t ->
  ?fabric:Guillotine_net.Fabric.t ->
  ?net_addrs:int list ->
  unit ->
  t
(** [fabric]/[net_addrs]: the deployment's network attachment points;
    disconnection physically detaches them. *)

val network : t -> cable_state
val power : t -> cable_state
val immolated : t -> bool

val disconnect_network : t -> on_done:(unit -> unit) -> (unit, string) result
(** Reversible unplug.  [on_done] fires when the actuation completes
    (simulated time).  Fails if cables are destroyed. *)

val reconnect_network : t -> on_done:(unit -> unit) -> (unit, string) result
val cut_power : t -> on_done:(unit -> unit) -> (unit, string) result
val restore_power : t -> on_done:(unit -> unit) -> (unit, string) result

val decapitate : t -> on_done:(unit -> unit) -> (unit, string) result
(** Physically damage network and power cabling; only [repair_cables]
    (a manual, hours-long operation) undoes it. *)

val repair_cables : t -> on_done:(unit -> unit) -> (unit, string) result

val immolate : t -> on_done:(unit -> unit) -> (unit, string) result
(** Terminal.  Everything fails afterwards. *)

(** {2 Telemetry} *)

val telemetry : t -> Guillotine_telemetry.Telemetry.t
(** The switch bank's registry ("switches"): total and per-actuation
    counters, plus a [switch.<name>] span covering each actuation from
    trigger to physical completion.  Its clock is sim time. *)

val metrics : t -> Guillotine_telemetry.Telemetry.snapshot

val set_event_sink : t -> (kind:string -> string -> unit) -> unit
(** Forward [kill_switch.initiated] / [kill_switch.actuated] events
    (detail = actuation name) to an external journal — the
    observability plane's flight recorder. *)
