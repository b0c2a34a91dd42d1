(** Cost classes for the cycle-attribution profiler.

    Every simulated cycle a profiled run charges is bucketed into
    exactly one of these classes, per (guest, basic block):

    - [Fetch_decode]: the cache-hierarchy cost of instruction fetch;
    - [Tlb_walk]: TLB lookups and page walks, fetch and data side;
    - [Cache_data]: the data-side hierarchy (loads, stores, flushes);
    - [Execute]: the residual per-instruction execute charge (ALU,
      multiply/divide latency, branch resolution, fences);
    - [Exception_dispatch]: vector-table reads on exception and
      interrupt delivery;
    - [Doorbell]: the guest's [Irq] doorbell plus the hypervisor's
      mediation and copy charges for servicing port requests;
    - [Dma_iommu]: device DMA bursts pushed through an IOMMU.

    The integer indices ([index]) are the array layout the
    allocation-free accumulators in [Guillotine_microarch.Core] use;
    [to_string] is the rendering the folded flamegraph output and the
    profile tables use.  Keep [all] in display order. *)

type t =
  | Fetch_decode
  | Tlb_walk
  | Cache_data
  | Execute
  | Exception_dispatch
  | Doorbell
  | Dma_iommu

val all : t list
(** Every class, in display (and index) order. *)

val count : int

val index : t -> int
(** Position in [all]; dense in [0, count). *)

val to_string : t -> string
(** Stable kebab-case name, e.g. ["fetch-decode"]. *)
