(** A fleet of Guillotine cells sharded across OCaml 5 domains.

    The fleet is a front-end router plus [cells] independent {!Cell}s:
    synthetic users are assigned to cells by session affinity
    ([user mod cells]), each cell hosts its own complete deployment, and
    the per-cell reports are aggregated into one {!view} — totals,
    every cell's watchdog alerts, and the first incident report across
    the fleet, labelled with the cell that raised it.

    Because cells share no mutable state, {!run} can execute them on
    [domains] OCaml domains with no synchronisation beyond spawn/join,
    and the result is {e byte-identical} to running every cell solo and
    concatenating: each user's request stream depends only on the fleet
    seed and the user's id, and each cell's randomness only on the
    fleet seed and the cell's id.  [Fleet.create ~cells:1] {e is} the
    solo deployment path. *)

type t

val create :
  ?seed:int ->
  ?users:int ->
  ?requests_per_user:int ->
  ?max_tokens:int ->
  ?rogue:int ->
  ?storm:int ->
  ?toctou:int ->
  ?domains:int ->
  cells:int ->
  unit ->
  t
(** [seed] defaults to 1; [users] (the global synthetic-user count) to
    [2 * cells]; [requests_per_user] to 4; [max_tokens] to 12.
    [rogue] / [storm] / [toctou] name the cell whose model is
    malicious / whose deployment gets the fault storm / which suffers
    the vet-install TOCTOU race ({!Cell.config.toctou}); default: none
    of them.  [domains] is the number of OCaml domains {!run} spawns (default
    [cells]; clamped to [cells]; 1 means run every cell on the calling
    domain).  Raises [Invalid_argument] on [cells < 1], negative
    [users], [domains < 1], or an out-of-range [rogue] / [storm] /
    [toctou] cell id. *)

val domains : t -> int

val route : t -> user:int -> int
(** The cell serving [user]: [user mod cells] — session affinity, so a
    user's whole stream lands on one cell. *)

val cell_config : t -> cell_id:int -> Cell.config
(** The exact {!Cell.config} the fleet builds for [cell_id] — users
    from {!Cell.users_for}, rogue/storm/toctou flags set iff this is
    the named cell.  Running it standalone reproduces the fleet's cell
    byte for byte. *)

(** {2 Running} *)

type view = {
  v_seed : int;
  v_cells : int;
  v_reports : Cell.report array;  (** indexed by cell id *)
  v_requests : int;
  v_blocked : int;
  v_released : int;
  v_harmful_released : int;
  v_interventions : int;
  v_faults_injected : int;
  v_alerts : (int * string * string * float) list;
      (** (cell id, rule, severity, raised-at), cells in order *)
  v_incident_cell : int option;
      (** lowest-numbered cell that produced an incident report *)
  v_incident : string option;
      (** that cell's incident report — labelled with the cell's name,
          so a rogue guest in cell [n] is named fleet-wide *)
  v_digest : string;
      (** SHA-256 hex over the cells' transcript digests, in cell
          order — equal iff every cell's transcript is equal *)
}

val run : t -> view
(** Run every cell, sharded across {!domains} OCaml domains (cell [i]
    runs on domain [i mod domains]), and aggregate.  The view is
    independent of the domain count: the same fleet on 1 domain and on
    8 produces the same bytes. *)

val run_solo : t -> cell_id:int -> Cell.report
(** Run exactly one cell of this fleet on the calling domain — the
    reference the fleet-equals-concatenation test compares {!run}
    against. *)

val view_summary : view -> string
(** Deterministic multi-line rendering: per-cell lines, fleet totals,
    the incident-bearing cell (if any), and the fleet digest. *)
