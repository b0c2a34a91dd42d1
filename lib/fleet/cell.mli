(** One cell of a Guillotine fleet: a complete, self-contained
    deployment — machine, hypervisor, console, detectors, telemetry
    registries, monitor and flight recorder — built from a single
    {!config} record and owning {e zero} state shared with any other
    cell.  That isolation is what lets {!Fleet} run one cell per OCaml
    domain: a cell touches only objects it created, so cells are
    trivially data-race-free, and a fleet run is byte-identical to
    running each cell solo.

    A cell is driven whole: {!run} builds it, plays every user's
    request stream, settles, and reduces the run to a {!report}.  Seeds,
    fault plans and the monitor wiring come from
    {!Guillotine_faults.Scenarios}, so a cell and a scenario rig derive
    them the same way. *)

(** {2 Configuration} *)

type config = private {
  cell_id : int;          (** position in the fleet; names the cell *)
  seed : int;             (** fleet-wide base seed *)
  users : int list;       (** global user ids this cell serves, ascending *)
  requests_per_user : int;
  max_tokens : int;       (** generation budget per request *)
  rogue : bool;           (** plant {!rogue_trigger} malice in the model *)
  storm : bool;           (** run a fault storm against this cell *)
  toctou : bool;
      (** replay the vet/install privilege race (the
          ["toctou-install-race"] adversary of
          {!Guillotine_faults.Scenarios}) against this cell: a benign
          decoy is vetted, then a hostile probe sprint is installed on
          the cell's model core mid-serve — the cell's own probe
          monitor, console and watchdog must catch it *)
  roster : string list;
      (** {!Guillotine_core.Vet_corpus} guest names to pass through the
          co-admission interference gate at {!create} time, placed at
          striped physical frames (guest [i] at frame [16*i]).  The
          joint verdict is recorded via {!Guillotine_core.Deployment.coadmit}
          (counted, journaled, audit-chained) and exposed through
          {!coadmit_report}; an empty roster (the default) skips the
          gate, keeping transcripts byte-identical to earlier runs *)
}
(** Private: {!val-config} is the only way to build one, so every
    config a cell sees has passed its checks. *)

val config :
  ?seed:int ->
  ?users:int list ->
  ?requests_per_user:int ->
  ?max_tokens:int ->
  ?rogue:bool ->
  ?storm:bool ->
  ?toctou:bool ->
  ?roster:string list ->
  cell_id:int ->
  unit ->
  config
(** [seed] defaults to 1, [users] to [[cell_id]], [requests_per_user]
    to 4, [max_tokens] to 12, [rogue], [storm] and [toctou] to false,
    [roster] to empty.  An explicitly empty [users] list is
    allowed (the cell idles — a fleet wider than its user population
    has such cells).  Raises [Invalid_argument] on
    a negative [cell_id], non-positive
    [requests_per_user]/[max_tokens], or a [roster] name not in
    {!Guillotine_core.Vet_corpus}. *)

val cell_name : int -> string
(** ["cell-<id>"] — the deployment name, the incident-report label, and
    the name the fleet view uses when pointing at a cell. *)

val rogue_trigger : int
(** The trigger token (10) planted in a rogue cell's model: every
    user's request stream periodically ends a prompt with it (a benign
    token for honest models), so a malicious weight row erupts into the
    harmful band and the cell's defences light up. *)

val users_for : users:int -> cells:int -> cell_id:int -> int list
(** The global user ids a fleet of [cells] routes to [cell_id]:
    [\[u | 0 <= u < users, u mod cells = cell_id\]] — session-affinity
    sharding.  Raises [Invalid_argument] unless
    [0 <= cell_id < cells] and [users >= 0]. *)

(** {2 The cell handle} *)

type t

val create : config -> t
(** Build the cell's whole rig: a deployment named {!cell_name} on its
    own fabric, a model (malicious iff [rogue]), the monitor, and —
    when [storm] — a seeded fault plan installed against the
    deployment.  Everything is derived from [config] alone,
    so equal configs build byte-identical cells wherever (and on
    whichever domain) they run. *)

val coadmit_report : t -> Guillotine_vet.Interfere.report option
(** The co-admission interference report for {!config.roster} — [None]
    iff the roster was empty.  A [Reject] verdict here means the roster
    members were {e not} recorded as resident guests; the cell itself
    still runs (the gate is the decision record, installation is the
    caller's move). *)

(** {2 Driving a cell} *)

type report = {
  r_cell_id : int;
  r_name : string;
  r_users : int list;
  r_requests : int;         (** requests served (incl. blocked) *)
  r_blocked : int;          (** rejected by the input shield / isolation *)
  r_released : int;         (** tokens that left the sandbox *)
  r_harmful_released : int; (** harmful tokens that escaped all defences *)
  r_interventions : int;    (** steering substitutions / breaker trips *)
  r_faults_injected : int;  (** storm faults applied (0 without [storm]) *)
  r_final_level : string;   (** isolation level after settling *)
  r_alerts : (string * string * float) list;
      (** (rule, severity, raised-at), chronological *)
  r_incident : string option;
      (** deterministic incident report for the first alert, labelled
          with the cell's name *)
  r_transcript : string;    (** one line per request, deterministic *)
  r_digest : string;        (** SHA-256 hex of the transcript *)
}

val run : config -> report
(** Build the cell, play every user's request stream on the sim-time
    schedule, let any storm land, settle until 24 sim-s after the
    schedule ends, and reduce to a {!report}.  Deterministic: equal
    configs yield equal reports, byte for byte, whether run solo, inside
    a fleet, or on different domains — the property
    [test/test_fleet.ml] pins. *)

val report_summary : report -> string
(** Multi-line human rendering, stable across same-config runs. *)
