(** Block storage device model: a flat array of fixed-size sectors.

    Opcodes:
    - [1] READ:  [1; sector] -> payload = sector contents
    - [2] WRITE: [2; sector; w0..w7] -> persists the words
    - [3] SIZE:  [] -> [sectors]
    - [4] DMA_READ: [4; sector; dma_addr] -> the device writes the
      sector straight into guest memory through its DMA engine (IOMMU
      permitting); fails with [status_denied] on any blocked address.
      No DMA engine attached means no DMA capability.

    Latency: fixed seek cost plus per-word transfer cost; a trivial
    model, but enough to make IO-bound workloads distinguishable from
    compute-bound ones in the serving experiments. *)

type t

val sector_words : int

val create : name:string -> sectors:int -> unit -> t
(** A transfer costs 500 ticks of seek plus 5 per word. *)

val device : t -> Device.t

val write_sector : t -> int -> int64 array -> bool

val set_dma_engine :
  t -> (dma_addr:int -> int64 array -> (unit, string) result) -> unit
(** Attach the transfer path the hypervisor built for this device
    (typically {!Guillotine_machine.Machine.dma_write} through a
    device-specific IOMMU). *)

val dma_denied : t -> int
(** DMA_READ requests refused by the engine (the device's own count;
    the IOMMU keeps the authoritative one). *)

val op_read : int
val op_write : int
val op_dma_read : int
