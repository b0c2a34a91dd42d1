(* The closed set of cost classes the cycle-attribution profiler
   buckets simulated cycles into.  Lives in util because both producers
   (lib/microarch charges cycles, lib/hv attributes mediation/DMA) and
   the consumer (lib/obs renders profiles) need the same vocabulary
   without depending on each other. *)

type t =
  | Fetch_decode
  | Tlb_walk
  | Cache_data
  | Execute
  | Exception_dispatch
  | Doorbell
  | Dma_iommu

let all =
  [
    Fetch_decode;
    Tlb_walk;
    Cache_data;
    Execute;
    Exception_dispatch;
    Doorbell;
    Dma_iommu;
  ]

let count = List.length all

let index = function
  | Fetch_decode -> 0
  | Tlb_walk -> 1
  | Cache_data -> 2
  | Execute -> 3
  | Exception_dispatch -> 4
  | Doorbell -> 5
  | Dma_iommu -> 6

let to_string = function
  | Fetch_decode -> "fetch-decode"
  | Tlb_walk -> "tlb-walk"
  | Cache_data -> "cache-data"
  | Execute -> "execute"
  | Exception_dispatch -> "exception-dispatch"
  | Doorbell -> "doorbell"
  | Dma_iommu -> "dma-iommu"
