(** Named end-to-end fault scenarios with golden outcomes.

    Each scenario builds a fresh rig (deployment, serving stack, or
    both), installs a {!Fault_plan} derived from the given seed, lets
    the simulation play out, and reduces the run to an {!outcome}: the
    containment verdict, the recovery action taken, the final isolation
    level, and the full telemetry (snapshots + Chrome trace).

    Scenarios are deterministic: running the same (name, seed) twice
    yields byte-identical snapshots and traces — the property the
    regression harness and the CI seed matrix pin down. *)

type adversary = {
  hostile_turn_at : float;
      (** sim time of the first hostile act after admission *)
  detection_latency_s : float option;
      (** from the turn to the first kill-relevant console alarm raised
          after it; [None] = never detected *)
  contained_at : float option;
      (** when the scenario's containing isolation level was applied *)
  residual_damage : int;
      (** damage done between the hostile turn and containment, in
          [damage_unit]s (bits exfiltrated, DRAM words corrupted,
          probe rounds completed, requests starved) *)
  damage_unit : string;
}
(** Outcome metrics for the post-admission adversary scenarios: how
    long the runtime defences took to notice a guest that vetted clean
    and turned hostile, and how much damage it did before containment.
    Clocks are driven by the real detection/containment path
    ({!Guillotine_physical.Console.add_alarm_hook} and
    {!Guillotine_hv.Hypervisor.add_isolation_hook}), not scenario-local
    bookkeeping. *)

type outcome = {
  scenario : string;
  seed : int;
  verdict : string;
      (** "contained" / "recovered" / "degraded-gracefully" /
          "failed-over", or a failure verdict when containment or
          recovery did not happen. *)
  recovery : string;  (** the recovery mechanism that engaged *)
  faults_injected : int;
  recoveries : int;
      (** recovery actions taken (rollbacks, retries, failovers, shed
          requests — scenario-specific) *)
  final_level : Guillotine_hv.Isolation.level option;
      (** [None] for serving-only scenarios with no deployment *)
  sim_horizon : float;
      (** sim-seconds of simulated time the scenario covers *)
  snapshots : Guillotine_telemetry.Telemetry.snapshot list;
  trace : string;  (** Chrome-trace JSON across every registry *)
  adversary : adversary option;
      (** [Some] for the post-admission adversary scenarios, [None]
          for the fault/recovery plane *)
  profile : Guillotine_obs.Profile.t option;
      (** cycle-attribution profile of the rig's model cores, [Some] on
          runs whose mode has [profile] and whose guests ran; [None]
          otherwise, and always [None] for the serving-only scenarios
          with no deployment.  Carried out-of-band: [snapshots] and
          [trace] are byte-identical whether or not the run was
          profiled. *)
}

val names : string list
(** The fourteen scenarios: the fault/recovery plane
    (["heartbeat-outage"], ["weight-tamper-rollback"],
    ["core-wedge-rollback"], ["false-alarm-probation"],
    ["nic-flaky-attest"], ["device-stall-shedding"],
    ["irq-storm-contained"], ["fault-storm-failover"]) followed by the
    post-admission adversaries ({!adversaries}). *)

val adversaries : string list
(** The six post-admission adversary scenarios, in registry order:
    TOCTOU guests that vet clean and turn hostile after install
    (["toctou-dma-self-patch"], ["toctou-shared-window-rewrite"],
    ["toctou-install-race"]) and kill-switch evaders
    (["killswitch-exfil-sprint"], ["killswitch-replicate"],
    ["killswitch-hostage"]).  Each reports [Some adversary] in its
    outcome.  A subset of {!names}. *)

val seed64 : ?cell:int -> int -> int -> int64
(** [seed64 ?cell salt seed] is the one seed derivation of the scenario
    plane and of fleet cells: [salt * 0x10001 + seed + cell * 0x9E3779].
    Scenario rigs take the default cell 0; a fleet cell passes its id. *)

val plan_seed : cell:int -> int -> int
(** A fleet cell's fault-plan seed, [seed + 7919*cell].  Cell 0's is
    [seed], the seed a scenario rig's plan takes. *)

val observe_faults :
  Guillotine_obs.Monitor.t -> Injector.t -> unit
(** Point a monitor at an injector: sample its registry and journal its
    [fault.*] events in the flight recorder under source ["faults"]. *)

val alert_rows :
  Guillotine_obs.Monitor.t -> (string * string * float) list
(** The monitor's alerts as (rule name, severity, raised-at) rows,
    chronological. *)

val pump_hv : Guillotine_core.Deployment.t -> unit
(** Schedule the hypervisor to service guest ports every 50 ms. *)

val pump_models : Guillotine_core.Deployment.t -> unit
(** Schedule the model cores to run a quantum of 2000 instructions
    every 250 ms. *)

val run : ?seed:int -> ?mode:Guillotine_microarch.Core.mode -> string -> outcome
(** [run ?seed name] plays scenario [name].  [seed] (default 1)
    selects the fault plan and rig randomness, so a rig depends on
    (name, seed, mode) alone.  [mode] (default [Core.default_mode]) is
    the execution mode of every core of the rig.  With [profile] set,
    the rig's cores accumulate from their first cycle and the result
    lands in the outcome's [profile] field; everything else in the
    outcome is the same under every mode.  No process-wide state is
    touched.  Raises [Invalid_argument] for an unknown scenario name. *)

(** {2 Monitored runs}

    {!run_monitored} replays a scenario with the observability plane
    attached: an {!Guillotine_obs.Monitor} sampling every registry in
    the rig, the stock {!Guillotine_core.Deployment.default_slo_rules}
    watchdog ruleset, and a flight recorder receiving every subsystem's
    event sink (isolation transitions, kill-switch actuations, fault
    injections, shed/retry/failover decisions, detector verdicts).
    Monitoring is purely read-only over the rig: verdicts, counters and
    rig telemetry are unchanged from {!run} on the same (name, seed),
    and the whole monitored outcome replays byte-identically.  The
    [base] snapshots and trace additionally carry the monitor's own
    registry (sampling counters, alert instants). *)

type monitored = {
  base : outcome;
  alerts : (string * string * float) list;
      (** (rule name, severity, raised-at), chronological *)
  first_fault_at : float option;
      (** sim time of the first applied (non-skipped) fault — or of the
          adversary's first hostile act, whichever the flight recorder
          saw first *)
  detection_latency_s : float option;
      (** first alert at/after the first fault, minus the fault time *)
  incident_text : string option;
      (** deterministic incident report for that alert *)
  incident_json : string option;
}

val run_monitored : ?seed:int -> ?mode:Guillotine_microarch.Core.mode -> string -> monitored
(** Same [?seed] (default 1) / [?mode] contract as {!run}.  Raises
    [Invalid_argument] for an unknown scenario name. *)

val summary : outcome -> string
(** Multi-line human summary (verdict, recovery, counts, level; plus
    hostile-turn/detection/containment/damage lines for adversary
    scenarios) — stable across same-seed runs. *)
