(** IOMMU: the device-side MMU.

    §3.3 builds the port API on ring buffers and cites the IOMMU
    literature (rIOMMU, DAMN) for the device path.  The trust problem
    is symmetric to the CPU side: a DMA-capable device (or a device a
    model has corrupted through crafted requests) must not scribble
    arbitrary model memory — only the windows the hypervisor granted
    for the current transfer.

    This is a thin wrapper over {!Mmu} with a device-facing vocabulary
    and a fault counter: every blocked DMA is evidence the hypervisor
    wants to see. *)

type t

val create : unit -> t
(** Windows are {!Mmu} pages of 256 words. *)

val grant :
  t -> dma_page:int -> frame:int -> writable:bool -> (unit, Mmu.fault) result
(** Open a window: device DMA page [dma_page] reaches DRAM frame
    [frame], read-only or read-write. *)

val revoke : t -> dma_page:int -> unit
(** Close a window.  Idempotent. *)

val translate : t -> addr:int -> access:[ `R | `W ] -> (int, Mmu.fault) result
(** Translate a device-visible DMA address; a miss or a write through a
    read-only window counts as a blocked DMA. *)

val translate_raw : t -> addr:int -> access:[ `R | `W ] -> int
(** Allocation-free {!translate} for burst validation: the physical
    word address, or a negative value on any fault.  A pure query — it
    does {e not} count toward {!blocked_dmas}; callers that want the
    blocked-DMA evidence trail re-run the faulting address through
    {!translate}, which also recovers the fault detail. *)

val blocked_dmas : t -> int
(** Faults since creation — the tamper signal. *)

val windows : t -> (int * int * bool) list
(** [(dma_page, frame, writable)], sorted. *)
