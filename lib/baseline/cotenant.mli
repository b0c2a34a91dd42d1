(** The baseline machine's defining property: guest and hypervisor are
    {e co-tenants} of one physical core's microarchitecture.

    A traditional virtualization-aware processor (Intel VT-x-style) runs
    both guest and hypervisor code on the same core; functional units,
    branch predictors, TLBs, and caches hold state from both domains at
    once, and privilege modes only hide ISA-visible state.  This module
    builds that topology: one DRAM, one cache hierarchy, one TLB, one
    branch predictor — with two "views" that are the {e same} objects.
    Handing [guest_view] and [host_view] to the covert-channel code in
    {!Guillotine_model.Covert} reproduces the leak; handing it two
    Guillotine hierarchies does not.  That asymmetry is experiment T1. *)

type t

val create : unit -> t
(** One DRAM of 256 Ki words behind the shared structures. *)

val dram : t -> Guillotine_memory.Dram.t

val guest_view : t -> Guillotine_memory.Hierarchy.t
val host_view : t -> Guillotine_memory.Hierarchy.t
(** Physically the same hierarchy ([guest_view t == host_view t]). *)

val shared_tlb : t -> Guillotine_memory.Tlb.t

val guest_core : t -> Guillotine_microarch.Core.t
(** A core wired to the shared structures, for ISA-level guests. *)
