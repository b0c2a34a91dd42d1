(** The named vetting corpus: every canned guest program paired with its
    install grant and the verdict the static vetter must produce.

    This is the single source of truth consumed by the [guillotine vet]
    CLI, the V1 bench, the CI smoke step and [test/test_vet.ml] — one
    list, so a new guest or a changed verdict is visible to all four at
    once.  Benign guests must come out [Admit] (or
    [Admit_with_warnings] where the protocol genuinely computes
    addresses from loaded ring cursors); the from-cycle-zero
    adversarial suite must be [Reject]ed, statically, before a single
    instruction runs.

    The {e post-admission} adversaries (ISSUE 7) invert the pin:
    [malicious = true] yet [expected] is [Admit] or
    [Admit_with_warnings], because each turns hostile only after
    admission — TOCTOU self-patching, descriptor rewriting, and
    kill-switch evasion.  Their goldens prove the static vetter
    genuinely cannot see these attacks, which is exactly why the
    runtime adversary scenarios in [lib/faults] must catch them. *)

module Vet = Guillotine_vet.Vet
module Absint = Guillotine_vet.Absint

type entry = {
  name : string;  (** CLI / CI identifier, kebab-case *)
  source : string;  (** GRISC assembly *)
  code_pages : int;
  data_pages : int;
  extra : Absint.range list;  (** granted IO windows, matching the ports *)
  malicious : bool;
  expected : Vet.verdict;
  dma : (int * int * bool) list;
      (** the scenario's planned IOMMU windows for this guest's DMA
          engine — co-admission input, empty for DMA-less guests *)
  dma_descriptors : Absint.range list;
      (** virtual ranges the guest re-reads as DMA descriptors *)
  about : string;  (** one-line description for listings *)
}

val all : entry list
(** The full corpus, benign first, deterministic order. *)

val find : string -> entry option

val vet : entry -> Vet.report
(** Assemble and vet the entry under its recorded grant. *)

(** {2 Co-admission rosters}

    Named guest {e sets} with pinned co-admission verdicts — the second
    stage's analogue of the per-guest corpus above, consumed by the
    [vet --coadmit] CLI, the CI smoke step, the V2 experiment and
    [test/test_vet.ml].  All-benign rosters must co-admit with zero
    findings; the colluding, self-patching and burst-summing rosters
    must be rejected with named findings. *)

module Summary = Guillotine_vet.Summary
module Interfere = Guillotine_vet.Interfere

val coadmit_spec : ?frame_base:int -> entry -> Summary.spec
(** The entry as a co-admission spec placed at physical frame
    [frame_base] (default 0), with no aliased pages. *)

type roster = {
  roster_name : string;
  members : Summary.spec list;  (** placements included *)
  expect : Vet.verdict;  (** pinned co-admission verdict *)
  roster_about : string;
}

val coadmit_rosters : roster list
(** Deterministic order, benign rosters first. *)

val find_roster : string -> roster option

val coadmit : roster -> Interfere.report
(** Run the interference check ({!Interfere.run}) on the roster's
    members. *)
