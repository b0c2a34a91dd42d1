(** Installs a {!Fault_plan} onto a running simulation.

    The injector owns its own telemetry registry ("faults"), clocked on
    the discrete-event engine, so every injection and every clearing of
    a timed fault shows up on the same Chrome-trace timeline as the
    recovery actions it provokes: [fault.injected] / [fault.cleared]
    instants plus [faults.injected] / [faults.cleared] /
    [faults.skipped] counters.

    Faults are applied to whichever targets are supplied at
    {!install} time; a fault whose target is absent (e.g. a NIC fault
    without a deployment) is counted as skipped rather than raising, so one
    plan can drive both a full deployment and a serving-only rig. *)

type t

val create : engine:Guillotine_sim.Engine.t -> unit -> t

val telemetry : t -> Guillotine_telemetry.Telemetry.t

val set_event_sink : t -> (kind:string -> string -> unit) -> unit
(** Forward [fault.injected] / [fault.cleared] / [fault.skipped] events
    (detail = {!Fault_plan.describe}) to an external journal — the
    observability plane's flight recorder. *)

val injected : t -> int
(** Faults applied so far. *)

val skipped : t -> int
(** Faults whose target was absent at firing time. *)

val wrap_device :
  t -> Guillotine_devices.Device.t -> Guillotine_devices.Device.t
(** Wrap a device so [Device_stall] faults slow its completions; the
    wrapper reads the injector's stall window per request. *)

val install :
  t ->
  ?deployment:Guillotine_core.Deployment.t ->
  ?service:Guillotine_serve.Service.t ->
  ?heartbeat:Guillotine_physical.Heartbeat.t ->
  Fault_plan.t ->
  unit
(** Schedule every event of the plan on the engine.  Link faults act on
    the deployment's fabric, so they need a deployment.  Timed
    faults (loss windows, stalls, outages, brownouts) schedule their own
    clearing. *)
