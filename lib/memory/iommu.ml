type t = {
  mmu : Mmu.t;
  mutable blocked : int;
}

let create () = { mmu = Mmu.create (); blocked = 0 }

let grant t ~dma_page ~frame ~writable =
  let perm = if writable then Mmu.perm_rw else Mmu.perm_r in
  Mmu.map t.mmu ~vpage:dma_page ~frame perm

let revoke t ~dma_page = ignore (Mmu.unmap t.mmu ~vpage:dma_page)

let translate t ~addr ~access =
  match Mmu.translate t.mmu ~addr ~access:(access :> [ `R | `W | `X ]) with
  | Ok _ as ok -> ok
  | Error _ as e ->
    t.blocked <- t.blocked + 1;
    e

let translate_raw t ~addr ~access =
  Mmu.translate_raw t.mmu ~addr ~access:(access :> [ `R | `W | `X ])

let blocked_dmas t = t.blocked

let windows t =
  List.filter_map
    (fun (vpage, frame, (perm : Mmu.perm)) ->
      if perm.Mmu.r then Some (vpage, frame, perm.Mmu.w) else None)
    (Mmu.mapped_pages t.mmu)
