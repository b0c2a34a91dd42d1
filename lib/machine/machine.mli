(** The Guillotine machine: split-core topology with physically disjoint
    memory hierarchies (§3.2).

    - Model cores attach to model DRAM plus the uncached shared IO
      region; they have {e no} bus that reaches hypervisor DRAM — the
      simulation encodes this by construction, not by a permission
      check.
    - Hypervisor cores attach to hypervisor DRAM plus the same IO
      region, and additionally own (a) a private inspection bus into
      model DRAM that only works while every model core is quiescent,
      and (b) the control-plane handles of each model core.
    - The LAPIC sits between model-core doorbells and the hypervisor,
      applying the §3.2 interrupt throttle.

    Machine time ("ticks") is the sum of cycles consumed by model cores
    plus cycles explicitly charged to the hypervisor; the LAPIC windows
    are measured in this clock. *)

module Core = Guillotine_microarch.Core
module Dram = Guillotine_memory.Dram
module Mmu = Guillotine_memory.Mmu

type t

val create : ?lapic_rate_limit:int -> ?mode:Core.mode -> unit -> t
(** Every machine has one topology, fixed in [machine.ml]: 2 model
    cores, 1 hypervisor core, 256 KiW model DRAM, 64 KiW hypervisor DRAM
    and a 16 KiW IO region.  The LAPIC admits [lapic_rate_limit]
    doorbells (default 64; [<= 0] disables throttling) per
    {!Lapic.window} ticks.  [mode] (default {!Core.default_mode}) is the
    execution mode of every core the machine builds, model and
    hypervisor alike. *)

val configuration : t -> string
(** The configuration a platform measurement covers:
    ["cores=2/1 dram=262144/65536 io=16384 lapic=64/10000"] for a
    machine with the default throttle. *)

(** {2 Topology accessors} *)

val model_core : t -> int -> Core.t
val hyp_core : t -> int -> Core.t
val model_cores : t -> Core.t array
val hyp_cores : t -> Core.t array
val model_dram : t -> Dram.t
val hyp_dram : t -> Dram.t
val io_dram : t -> Dram.t
val lapic : t -> Lapic.t

(** {2 Time} *)

val now : t -> int
(** Machine ticks: total model-core cycles + charged hypervisor cycles. *)

val charge_hypervisor : t -> int -> unit
(** Account cycles spent by hypervisor software (the OCaml-level
    software hypervisor charges its work here so overhead experiments
    see it). *)

val hypervisor_cycles : t -> int

(** {2 Execution} *)

val run_models : t -> quantum:int -> int
(** One scheduling round: each running model core executes up to
    [quantum] instructions.  Returns total instructions retired this
    round. *)

val run_cores : t -> cycles:int -> int
(** Cycle-quantum variant of {!run_models}: each running model core
    advances by at least [cycles] simulated cycles
    ({!Core.run_cycles}).  Returns total instructions retired.  Paired
    with {!Guillotine_sim.Engine.every_batch} this lets a driver consult
    the event heap once per time quantum instead of once per
    instruction. *)

val all_models_quiescent : t -> bool
(** No model core is in [Running] state. *)

val pause_all_models : t -> unit
val resume_all_models : t -> unit
val power_down_all_models : t -> unit
(** Pauses first, then powers down. *)

(** {2 Model-memory setup and the private inspection bus} *)

val identity_map : t -> core:int -> from_page:int -> to_page:int -> Mmu.perm -> unit
(** Map virtual pages [from_page..to_page] of a model core's MMU to the
    same-numbered model-DRAM frames.  Raises [Failure] if the MMU
    refuses (e.g. locked). *)

val map_io_page : t -> core:int -> vpage:int -> io_page:int -> Mmu.perm -> unit

val install_program :
  t -> core:int -> code_pages:int -> data_pages:int -> Guillotine_isa.Asm.program -> unit
(** Convenience loader: identity-maps [code_pages] pages starting at
    page 0 as RX and the following [data_pages] pages as RW, copies the
    program image into model DRAM, and sets the core's pc to the program
    origin.  The vector table (page 0) overlaps the first code page and
    is part of the image.  The core must be halted or freshly created. *)

(** {2 Device DMA through the IOMMU} *)

val dma_write :
  t -> iommu:Guillotine_memory.Iommu.t -> dma_addr:int -> int64 array ->
  (unit, string) result
(** A device writes a burst into model DRAM through its IOMMU windows.
    Unlike the hypervisor's private bus this path works while model
    cores run (that is what DMA is for) — which is exactly why every
    word is translated and a miss aborts the whole burst with nothing
    written. *)

val dma_read :
  t -> iommu:Guillotine_memory.Iommu.t -> dma_addr:int -> len:int ->
  (int64 array, string) result

exception Inspection_denied of string

val inspect_read : t -> int -> int64
(** Read model DRAM over the hypervisor's private bus.  Raises
    [Inspection_denied] unless every model core is quiescent (§3.2:
    the bus reaches "the DRAM of halted model cores"). *)

val inspect_write : t -> int -> int64 -> unit

val inspect_region : t -> at:int -> len:int -> int64 array

val measure_model_memory : t -> at:int -> len:int -> string
(** SHA-256 measurement of a model-DRAM region (attestation input). *)

(** {2 Telemetry} *)

val telemetry : t -> Guillotine_telemetry.Telemetry.t
(** The machine's registry ("machine"): instruction retire totals,
    hypervisor cycle charges, DMA burst outcomes, private-bus
    inspections.  Its default clock is the machine tick count. *)

val metrics : t -> Guillotine_telemetry.Telemetry.snapshot
(** Registry counters plus per-model-core values read from the cores at
    snapshot time ([core<i>.retired/traps/irqs/flushes]). *)
