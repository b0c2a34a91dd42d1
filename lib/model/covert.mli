(** Cache covert/side channels: prime+probe and flush+reload.

    These are the attacks §3.2 exists to kill.  The sender encodes each
    bit as cache-set pressure; the receiver decodes it from probe
    timing.  Both parties act only through {!Guillotine_memory.Hierarchy}
    accesses and timings — exactly the operations a real attacker has.

    The decisive parameter is whether sender and receiver were handed
    the {e same} hierarchy (baseline co-tenancy) or physically separate
    ones (Guillotine split cores): the code is identical either way, and
    the measured channel accuracy is the experiment. *)

type result = {
  sent : bool list;
  recovered : bool list;
  accuracy : float;       (** fraction of bits recovered correctly *)
  cycles : int;           (** total sender + receiver cycles consumed *)
  bits_per_kilocycle : float; (** goodput: correct bits beyond guessing, per 1000 cycles *)
}

val prime_probe :
  sender:Guillotine_memory.Hierarchy.t ->
  receiver:Guillotine_memory.Hierarchy.t ->
  ?target_set:int ->
  ?sender_set_offset:int ->
  bool list ->
  result
(** Transmit the bit string through L1-set contention.  [target_set]
    defaults to set 3.  [sender_set_offset] (default 0) displaces the
    sender's accesses by that many sets — modelling set-partitioned
    co-tenancy, the classic point mitigation, where each domain is
    confined to disjoint sets of one shared cache.  A non-zero offset
    kills the channel but costs each tenant capacity, which is the
    trade-off ablation A2 measures. *)

val flush_reload :
  sender:Guillotine_memory.Hierarchy.t ->
  receiver:Guillotine_memory.Hierarchy.t ->
  shared_addr:int ->
  bool list ->
  result
(** Flush+reload on one shared physical line (the "shared library page"
    pattern).  Needs genuinely shared cache {e and} a shared address to
    show anything. *)

val branch_predictor :
  sender:Guillotine_microarch.Core.Bpred.t ->
  receiver:Guillotine_microarch.Core.Bpred.t ->
  ?probe_pc:int ->
  bool list ->
  result
(** Spectre-family residue: the sender trains the predictor entry for
    [probe_pc] toward taken (bit 1) or not-taken (bit 0); the receiver
    executes a never-taken branch at the same pc and reads the bit out
    of the mispredict penalty.  Alive when both parties share the
    predictor (SMT / co-resident virtualization); dead across
    Guillotine's per-core predictors. *)
