(** Admission-time static vetting of GRISC guest programs.

    The façade over {!Cfg}, {!Absint} and {!Lints}: build the graph,
    iterate the abstract interpreter to resolve indirect jumps, run the
    lint rules, and fold the findings into a verdict.  The hypervisor
    consults the verdict before [install_program] ever copies a word of
    the guest into model DRAM — rejection means the program never runs.

    The policy is fixed: at most 3 CFG/abstract-interpretation rounds
    resolve [Jr] targets ([max_indirect_rounds] in [vet.ml]), an
    interval widens after 3 refining joins ({!Absint.analyze}), and a
    statically-bounded doorbell burst of up to 64 rings is admitted
    ({!Lints.run}).

    Reports are byte-deterministic: the same program and grant set
    always produce the same text and JSON, so verdicts can be pinned in
    CI and diffed across toolchain changes. *)

type verdict = Admit | Admit_with_warnings | Reject

val verdict_label : verdict -> string

type report = {
  label : string;
  verdict : verdict;
  findings : Lints.finding list;
  instr_count : int;   (** reachable, decodable instructions analysed *)
  image_words : int;
  code_pages : int;
  data_pages : int;
  extra_windows : int;
  indirect_rounds : int;  (** build/analyse rounds actually taken *)
  widenings : int;
}

val run :
  ?label:string ->
  ?extra:Absint.range list ->
  code_pages:int ->
  data_pages:int ->
  Guillotine_isa.Asm.program ->
  report
(** [extra] lists additional granted windows (IO rings, shared pages)
    beyond the identity-mapped code/data pages. *)

val analyze :
  ?label:string ->
  ?extra:Absint.range list ->
  code_pages:int ->
  data_pages:int ->
  Guillotine_isa.Asm.program ->
  report * Cfg.t * Absint.result
(** {!run}, additionally handing back the converged CFG and abstract
    fixpoint the verdict was derived from.  The co-admission pass
    ({!Summary}) distills effect summaries from these instead of
    re-running the fixpoint. *)

val errors : report -> Lints.finding list
val warnings : report -> Lints.finding list

val to_text : report -> string
val to_json : report -> string
