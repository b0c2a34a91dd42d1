(* Tests for DRAM, the MMU (including the executable-region lock that
   implements the paper's anti-self-modification guarantee), caches, the
   TLB, and the composed hierarchy. *)

open Guillotine_memory

(* ----------------------------- DRAM ------------------------------- *)

let test_dram_read_write () =
  let d = Dram.create ~size:128 in
  Dram.write d 5 42L;
  Alcotest.(check int64) "read back" 42L (Dram.read d 5);
  Alcotest.(check int64) "zero init" 0L (Dram.read d 6);
  Alcotest.(check int) "size" 128 (Dram.size d)

let test_dram_bus_error () =
  let d = Dram.create ~size:16 in
  let boom = Dram.Bus_error { addr = 16; size = 16 } in
  Alcotest.check_raises "oob read" boom (fun () -> ignore (Dram.read d 16));
  Alcotest.check_raises "negative" (Dram.Bus_error { addr = -1; size = 16 }) (fun () ->
      ignore (Dram.read d (-1)))

let test_dram_load_and_snapshot () =
  let d = Dram.create ~size:64 in
  Dram.load_words d ~at:10 [| 1L; 2L; 3L |];
  Alcotest.(check (array int64)) "snapshot" [| 1L; 2L; 3L |]
    (Dram.snapshot d ~at:10 ~len:3)

let test_dram_hash_region_sensitive () =
  let d = Dram.create ~size:32 in
  let h0 = Dram.hash_region d ~at:0 ~len:32 in
  Dram.write d 31 1L;
  let h1 = Dram.hash_region d ~at:0 ~len:32 in
  Alcotest.(check bool) "hash changes" true (h0 <> h1)

(* The serialisation measurement digests hash: 8 bytes per word,
   big-endian, in address order. *)
let test_dram_hash_region_bytes () =
  let d = Dram.create ~size:8 in
  Dram.load_words d ~at:2 [| -1L; 0x0123456789abcdefL; Int64.min_int; -2L; 1L |];
  let hex s =
    String.to_seq s
    |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    |> List.of_seq |> String.concat ""
  in
  Alcotest.(check string) "bytes"
    ("ffffffffffffffff" ^ "0123456789abcdef" ^ "8000000000000000" ^ "fffffffffffffffe"
   ^ "0000000000000001")
    (hex (Dram.hash_region d ~at:2 ~len:5));
  Alcotest.(check string) "empty region" "" (Dram.hash_region d ~at:7 ~len:0);
  Alcotest.check_raises "bad at" (Dram.Bus_error { addr = 8; size = 8 }) (fun () ->
      ignore (Dram.hash_region d ~at:8 ~len:0));
  Alcotest.check_raises "past the end" (Dram.Bus_error { addr = 8; size = 8 })
    (fun () -> ignore (Dram.hash_region d ~at:4 ~len:5));
  Alcotest.check_raises "negative len" (Dram.Bus_error { addr = 2; size = 8 })
    (fun () -> ignore (Dram.hash_region d ~at:4 ~len:(-1)))

(* A DRAM makes its words on the first call that mutates it.  Until
   then it must answer as a zero-filled one does: reads, snapshots,
   region hashes and every [Bus_error]. *)
let test_dram_never_written () =
  let fresh = Dram.create ~size:64 and zeroed = Dram.create ~size:64 in
  Dram.write zeroed 9 5L;
  Dram.write zeroed 9 0L;
  Dram.fill fresh ~at:0 ~len:64 0L;
  let raised f = match f () with _ -> None | exception Dram.Bus_error e -> Some (e.addr, e.size) in
  let same what f =
    Alcotest.(check (option (pair int int))) what (raised (fun () -> f zeroed))
      (raised (fun () -> f fresh))
  in
  List.iter
    (fun addr ->
      Alcotest.(check int64) (Printf.sprintf "read %d" addr) 0L (Dram.read fresh addr);
      Alcotest.(check int) (Printf.sprintf "read_int %d" addr) 0 (Dram.read_int fresh addr))
    [ 0; 9; 63 ];
  List.iter
    (fun (at, len) ->
      let what = Printf.sprintf "[%d, +%d)" at len in
      Alcotest.(check (array int64)) ("snapshot " ^ what) (Dram.snapshot zeroed ~at ~len)
        (Dram.snapshot fresh ~at ~len);
      Alcotest.(check string) ("hash " ^ what) (Dram.hash_region zeroed ~at ~len)
        (Dram.hash_region fresh ~at ~len))
    [ (0, 64); (5, 0); (63, 1); (17, 30) ];
  List.iter
    (fun addr -> same (Printf.sprintf "read %d" addr) (fun d -> Dram.read d addr))
    [ 64; -1; max_int; min_int ];
  same "snapshot past the end" (fun d -> Dram.snapshot d ~at:60 ~len:5);
  same "hash at the end" (fun d -> Dram.hash_region d ~at:64 ~len:0);
  same "negative length" (fun d -> Dram.hash_region d ~at:4 ~len:(-1));
  same "write past the end" (fun d -> Dram.write d 64 1L);
  same "fill past the end" (fun d -> Dram.fill d ~at:1 ~len:64 0L);
  Alcotest.(check int) "nothing made yet" 0 (Array.length fresh.Dram.data);
  Dram.write fresh 3 0L;
  Alcotest.(check int) "a write makes every word" 64 (Array.length fresh.Dram.data);
  Alcotest.(check (array int64)) "still zero" (Array.make 64 0L)
    (Dram.snapshot fresh ~at:0 ~len:64)

(* ------------------------------ MMU ------------------------------- *)

let perm = Alcotest.testable (fun ppf (p : Mmu.perm) ->
    Format.fprintf ppf "r=%b w=%b x=%b" p.Mmu.r p.Mmu.w p.Mmu.x)
    ( = )

let ok_or_fail = function
  | Ok () -> ()
  | Error f -> Alcotest.fail (Format.asprintf "%a" Mmu.pp_fault f)

let test_mmu_translate () =
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:2 ~frame:7 Mmu.perm_rw);
  (match Mmu.translate m ~addr:((2 * 256) + 5) ~access:`R with
  | Ok p -> Alcotest.(check int) "translated" ((7 * 256) + 5) p
  | Error _ -> Alcotest.fail "should translate");
  (match Mmu.translate m ~addr:100 ~access:`R with
  | Error (Mmu.Unmapped 100) -> ()
  | _ -> Alcotest.fail "unmapped should fault")

let test_mmu_permissions () =
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_r);
  (match Mmu.translate m ~addr:0 ~access:`W with
  | Error (Mmu.Perm_denied 0) -> ()
  | _ -> Alcotest.fail "write to RO should fault");
  (match Mmu.translate m ~addr:0 ~access:`X with
  | Error (Mmu.Perm_denied 0) -> ()
  | _ -> Alcotest.fail "exec of non-X should fault")

let test_mmu_lock_blocks_new_executable () =
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_rx);
  Mmu.lock_executable m;
  (match Mmu.map m ~vpage:5 ~frame:5 Mmu.perm_rx with
  | Error (Mmu.Lock_violation _) -> ()
  | _ -> Alcotest.fail "new X page after lock must be refused");
  (match Mmu.protect m ~vpage:0 Mmu.perm_rwx with
  | Error (Mmu.Lock_violation _) -> ()
  | _ -> Alcotest.fail "adding W to locked X page must be refused")

let test_mmu_lock_blocks_remap_and_unmap () =
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_rx);
  Mmu.lock_executable m;
  (match Mmu.map m ~vpage:0 ~frame:9 Mmu.perm_r with
  | Error (Mmu.Lock_violation _) -> ()
  | _ -> Alcotest.fail "remapping locked page must be refused");
  (match Mmu.unmap m ~vpage:0 with
  | Error (Mmu.Lock_violation _) -> ()
  | _ -> Alcotest.fail "unmapping locked page must be refused")

let test_mmu_lock_blocks_writable_alias () =
  (* The classic W^X bypass: map a second virtual page RW onto the frame
     that backs locked code. *)
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_rx);
  Mmu.lock_executable m;
  (match Mmu.map m ~vpage:9 ~frame:0 Mmu.perm_rw with
  | Error (Mmu.Lock_violation _) -> ()
  | _ -> Alcotest.fail "writable alias of locked frame must be refused");
  (* A read-only alias is harmless and allowed. *)
  ok_or_fail (Mmu.map m ~vpage:10 ~frame:0 Mmu.perm_r)

let test_mmu_lock_strips_wx () =
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:1 ~frame:1 Mmu.perm_rwx);
  Mmu.lock_executable m;
  (match Mmu.lookup m ~vpage:1 with
  | Some (1, p) -> Alcotest.check perm "W stripped" Mmu.perm_rx p
  | _ -> Alcotest.fail "page should remain mapped");
  (match Mmu.translate m ~addr:256 ~access:`W with
  | Error (Mmu.Perm_denied _) -> ()
  | _ -> Alcotest.fail "store to locked code must fault")

let test_mmu_lock_allows_data_changes () =
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_rx);
  ok_or_fail (Mmu.map m ~vpage:4 ~frame:4 Mmu.perm_rw);
  Mmu.lock_executable m;
  (* Data pages stay fully manageable. *)
  ok_or_fail (Mmu.map m ~vpage:5 ~frame:5 Mmu.perm_rw);
  ok_or_fail (Mmu.protect m ~vpage:4 Mmu.perm_r);
  ok_or_fail (Mmu.unmap m ~vpage:5)

let test_mmu_lock_idempotent () =
  let m = Mmu.create () in
  ok_or_fail (Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_rx);
  Mmu.lock_executable m;
  Mmu.lock_executable m;
  Alcotest.(check bool) "locked" true (Mmu.locked m);
  Alcotest.(check (list int)) "exec pages" [ 0 ] (Mmu.executable_pages m)

let prop_mmu_lock_monotone =
  (* Property: after lock, no sequence of map/protect calls can yield an
     executable page outside the locked set. *)
  QCheck.Test.make ~name:"no new executable pages after lock" ~count:100
    QCheck.(list (pair (int_range 0 20) (int_range 0 20)))
    (fun attempts ->
      let m = Mmu.create () in
      (match Mmu.map m ~vpage:0 ~frame:0 Mmu.perm_rx with
      | Ok () -> ()
      | Error _ -> assert false);
      Mmu.lock_executable m;
      List.iter
        (fun (vp, fr) ->
          ignore (Mmu.map m ~vpage:vp ~frame:fr Mmu.perm_rx);
          ignore (Mmu.map m ~vpage:vp ~frame:fr Mmu.perm_rwx);
          ignore (Mmu.protect m ~vpage:vp Mmu.perm_rx))
        attempts;
      Mmu.executable_pages m = [ 0 ])

(* ------------------------------ IOMMU ------------------------------ *)

let test_iommu_window_grant_revoke () =
  let io = Iommu.create () in
  (match Iommu.grant io ~dma_page:2 ~frame:7 ~writable:true with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grant");
  (match Iommu.translate io ~addr:((2 * 256) + 3) ~access:`W with
  | Ok p -> Alcotest.(check int) "translated" ((7 * 256) + 3) p
  | Error _ -> Alcotest.fail "granted window must translate");
  Iommu.revoke io ~dma_page:2;
  (match Iommu.translate io ~addr:(2 * 256) ~access:`R with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "revoked window must fault");
  Alcotest.(check int) "blocked counted" 1 (Iommu.blocked_dmas io)

let test_iommu_readonly_window_blocks_writes () =
  let io = Iommu.create () in
  (match Iommu.grant io ~dma_page:0 ~frame:0 ~writable:false with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "grant");
  (match Iommu.translate io ~addr:0 ~access:`R with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read allowed");
  match Iommu.translate io ~addr:0 ~access:`W with
  | Error (Mmu.Perm_denied _) -> ()
  | _ -> Alcotest.fail "write through read-only window must fault"

let test_iommu_windows_listing () =
  let io = Iommu.create () in
  ignore (Iommu.grant io ~dma_page:1 ~frame:5 ~writable:true);
  ignore (Iommu.grant io ~dma_page:3 ~frame:9 ~writable:false);
  Alcotest.(check (list (triple int int bool))) "windows"
    [ (1, 5, true); (3, 9, false) ]
    (Iommu.windows io)

(* ----------------------------- Cache ------------------------------ *)

let small_cache ?(next = None) () =
  Cache.create
    { Cache.line_words = 4; sets = 4; ways = 2; hit_cost = 1; miss_cost = 10 }
    ~next

let test_cache_hit_after_miss () =
  let c = small_cache () in
  let cold = Cache.access c ~addr:0 in
  let warm = Cache.access c ~addr:0 in
  Alcotest.(check int) "miss cost" 11 cold;
  Alcotest.(check int) "hit cost" 1 warm;
  Alcotest.(check (pair int int)) "stats" (1, 1) (Cache.stats c)

let test_cache_same_line_hits () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0);
  Alcotest.(check int) "same line word 3" 1 (Cache.access c ~addr:3);
  Alcotest.(check int) "next line misses" 11 (Cache.access c ~addr:4)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* Set 0 holds lines whose (line mod 4) = 0: addresses 0, 64, 128 with
     line_words=4, sets=4 -> set stride is 16 words. *)
  ignore (Cache.access c ~addr:0);   (* way A *)
  ignore (Cache.access c ~addr:16);  (* way B *)
  ignore (Cache.access c ~addr:0);   (* touch A: B is now LRU *)
  ignore (Cache.access c ~addr:32);  (* evicts B *)
  Alcotest.(check bool) "A still present" true (Cache.present c ~addr:0);
  Alcotest.(check bool) "B evicted" false (Cache.present c ~addr:16);
  Alcotest.(check bool) "C present" true (Cache.present c ~addr:32)

let test_cache_flush_line () =
  let next = small_cache () in
  let c = small_cache ~next:(Some next) () in
  ignore (Cache.access c ~addr:0);
  Alcotest.(check bool) "in L1" true (Cache.present c ~addr:0);
  Alcotest.(check bool) "in L2" true (Cache.present next ~addr:0);
  Cache.flush_line c ~addr:0;
  Alcotest.(check bool) "L1 flushed" false (Cache.present c ~addr:0);
  Alcotest.(check bool) "L2 flushed" false (Cache.present next ~addr:0)

let test_cache_flush_all () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:20);
  Alcotest.(check int) "occupied" 2 (Cache.occupancy c);
  Cache.flush_all c;
  Alcotest.(check int) "empty" 0 (Cache.occupancy c)

let test_cache_set_mapping () =
  let c = small_cache () in
  Alcotest.(check int) "addr 0 -> set 0" 0 (Cache.set_of_addr c 0);
  Alcotest.(check int) "addr 4 -> set 1" 1 (Cache.set_of_addr c 4);
  Alcotest.(check int) "addr 16 -> set 0" 0 (Cache.set_of_addr c 16)

let prop_cache_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy never exceeds sets*ways" ~count:100
    QCheck.(list (int_range 0 10_000))
    (fun addrs ->
      let c = small_cache () in
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      Cache.occupancy c <= 4 * 2)

(* Model-based test: the set-associative LRU cache against a reference
   model (per-set most-recently-used lists).  Hit/miss classification
   must agree on every access. *)
let prop_cache_matches_reference_lru =
  QCheck.Test.make ~name:"cache agrees with reference LRU model" ~count:100
    QCheck.(list (int_range 0 500))
    (fun addrs ->
      let cfg = { Cache.line_words = 4; sets = 4; ways = 2; hit_cost = 1; miss_cost = 10 } in
      let c = Cache.create cfg ~next:None in
      (* Reference: per-set list of resident line tags, MRU first. *)
      let sets = Array.make cfg.Cache.sets [] in
      List.for_all
        (fun addr ->
          let line = addr / cfg.Cache.line_words in
          let set = line land (cfg.Cache.sets - 1) in
          let tag = line / cfg.Cache.sets in
          let resident = List.mem tag sets.(set) in
          let without = List.filter (( <> ) tag) sets.(set) in
          let rec take n = function
            | [] -> []
            | x :: xs -> if n = 0 then [] else x :: take (n - 1) xs
          in
          sets.(set) <- take cfg.Cache.ways (tag :: without);
          let cost = Cache.access c ~addr in
          (resident && cost = cfg.Cache.hit_cost)
          || ((not resident) && cost > cfg.Cache.hit_cost))
        addrs)

(* The flat cache against the record cache it replaced ([Cache_ref]):
   random sequences of every operation over chains of one to three
   levels.  After each step every level must agree on the return value,
   stats, occupancy, clock, every way's tag and stamp (so victim choice
   among invalid ways and lower-level fills are pinned), and the slot a
   fetch site's hint resolves to.  A level makes its arrays on first
   use, so each sequence starts on a fresh chain with up to six of the
   operations that may come before any access ([present], [slot_of],
   [sentinel], [flush_line], [flush_all], [occupancy]).  A level must
   hold its arrays exactly when an access has reached it or [slot_of]
   or [sentinel] was asked of it; one without them must be in the
   reference's fresh state. *)
type cache_op =
  | Access of int
  | Flush_line of int
  | Flush_all
  | Present of int * int
  | Slot_of of int * int
  | Sentinel of int
  | Occupancy of int

let cache_op_to_string = function
  | Access a -> Printf.sprintf "access %d" a
  | Flush_line a -> Printf.sprintf "flush_line %d" a
  | Flush_all -> "flush_all"
  | Present (l, a) -> Printf.sprintf "present L%d %d" (l + 1) a
  | Slot_of (l, a) -> Printf.sprintf "slot_of L%d %d" (l + 1) a
  | Sentinel l -> Printf.sprintf "sentinel L%d" (l + 1)
  | Occupancy l -> Printf.sprintf "occupancy L%d" (l + 1)

let gen_cache_chain =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (map3
         (fun sets ways line -> (1 lsl sets, ways, 1 lsl line))
         (int_range 0 3) (int_range 1 4) (int_range 0 3)))

let gen_cache_op =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun a -> Access a) (int_range 0 511));
        (2, map (fun a -> Flush_line a) (int_range 0 511));
        (1, return Flush_all);
        (2, map2 (fun l a -> Present (l, a)) (int_range 0 2) (int_range 0 511));
      ])

(* Operations a fresh cache may see before any access. *)
let gen_first_op =
  QCheck.Gen.(
    oneof
      [
        map2 (fun l a -> Present (l, a)) (int_range 0 2) (int_range 0 511);
        map2 (fun l a -> Slot_of (l, a)) (int_range 0 2) (int_range 0 511);
        map (fun l -> Sentinel l) (int_range 0 2);
        map (fun a -> Flush_line a) (int_range 0 511);
        return Flush_all;
        map (fun l -> Occupancy l) (int_range 0 2);
      ])

let prop_cache_matches_record_reference =
  let print (chain, ops) =
    String.concat "; "
      (List.map (fun (s, w, l) -> Printf.sprintf "sets=%d ways=%d line=%d" s w l) chain)
    ^ "\n" ^ String.concat "\n" (List.map cache_op_to_string ops)
  in
  QCheck.Test.make ~name:"flat cache = record reference" ~count:300
    (QCheck.make ~print
       QCheck.Gen.(
         pair gen_cache_chain
           (map2 ( @ ) (list_size (int_range 0 6) gen_first_op)
              (list_size (int_range 0 200) gen_cache_op))))
    (fun (chain, ops) ->
      let levels = Array.of_list chain in
      let n = Array.length levels in
      (* Slot [n] stays [None]: the bottom level's [next]. *)
      let flat = Array.make (n + 1) None and refs = Array.make (n + 1) None in
      for i = n - 1 downto 0 do
        let sets, ways, line_words = levels.(i) in
        let name = Printf.sprintf "L%d" (i + 1) and hit_cost = i + 1 and miss_cost = 10 * (i + 1) in
        flat.(i) <-
          Some
            (Cache.create { Cache.line_words; sets; ways; hit_cost; miss_cost }
               ~next:flat.(i + 1));
        refs.(i) <-
          Some
            (Cache_ref.create ~name { Cache_ref.line_words; sets; ways; hit_cost; miss_cost }
               ~next:refs.(i + 1))
      done;
      let flat = Array.init n (fun i -> Option.get flat.(i))
      and refs = Array.init n (fun i -> Option.get refs.(i)) in
      (* Levels [slot_of] or [sentinel] was asked of. *)
      let asked = Array.make n false in
      let level l = min l (n - 1) in
      let sentinel_of i =
        let sets, ways, _ = levels.(i) in
        sets * ways
      in
      let agree step addr =
        for i = 0 to n - 1 do
          let c = flat.(i) and r = refs.(i) in
          let fail what = QCheck.Test.fail_reportf "step %d, L%d: %s differs" step (i + 1) what in
          if Cache.stats c <> Cache_ref.stats r then fail "stats";
          if Cache.occupancy c <> Cache_ref.occupancy r then fail "occupancy";
          if c.Cache.clock <> r.Cache_ref.clock then fail "clock";
          let hits, misses = Cache_ref.stats r in
          let made = Array.length c.Cache.tags > 0 in
          if made <> (hits + misses > 0 || asked.(i)) then fail "whether the arrays exist";
          let _, ways, _ = levels.(i) in
          Array.iteri
            (fun set row ->
              Array.iteri
                (fun w (way : Cache_ref.way) ->
                  let slot = (set * ways) + w in
                  let tag, stamp =
                    if made then (c.Cache.tags.(slot), c.Cache.stamps.(slot)) else (-1, 0)
                  in
                  if tag <> way.Cache_ref.tag then fail "a tag";
                  if stamp <> way.Cache_ref.stamp then fail "a stamp")
                row)
            r.Cache_ref.ways;
          (* [slot_of] makes the arrays, so the hint is checked only on a
             level that has them. *)
          if made then begin
            let sentinel = Cache.sentinel c in
            if sentinel <> sentinel_of i then fail "the sentinel index";
            if c.Cache.tags.(sentinel) <> min_int || c.Cache.stamps.(sentinel) <> 0 then
              fail "the sentinel";
            (* The slot a fetch site's hint resolves to after this step. *)
            let set = Cache.set_of_addr c addr and tag = Cache.tag_of_addr c addr in
            let wi = Cache_ref.way_of r ~set ~tag in
            let expect = if wi >= 0 then (set * ways) + wi else sentinel in
            if Cache.slot_of c ~set ~tag <> expect then fail "the hinted slot"
          end
        done
      in
      List.iteri
        (fun step op ->
          let addr =
            match op with
            | Access a ->
              if Cache.access flat.(0) ~addr:a <> Cache_ref.access refs.(0) ~addr:a then
                QCheck.Test.fail_reportf "step %d: access cost differs" step;
              a
            | Flush_line a ->
              Cache.flush_line flat.(0) ~addr:a;
              Cache_ref.flush_line refs.(0) ~addr:a;
              a
            | Flush_all ->
              Cache.flush_all flat.(0);
              Cache_ref.flush_all refs.(0);
              0
            | Present (l, a) ->
              let l = level l in
              if Cache.present flat.(l) ~addr:a <> Cache_ref.present refs.(l) ~addr:a then
                QCheck.Test.fail_reportf "step %d: present differs" step;
              a
            | Slot_of (l, a) ->
              let l = level l in
              let c = flat.(l) and r = refs.(l) in
              let set = Cache.set_of_addr c a and tag = Cache.tag_of_addr c a in
              let _, ways, _ = levels.(l) in
              let wi = Cache_ref.way_of r ~set ~tag in
              let expect = if wi >= 0 then (set * ways) + wi else sentinel_of l in
              if Cache.slot_of c ~set ~tag <> expect then
                QCheck.Test.fail_reportf "step %d: slot_of differs" step;
              asked.(l) <- true;
              a
            | Sentinel l ->
              let l = level l in
              if Cache.sentinel flat.(l) <> sentinel_of l then
                QCheck.Test.fail_reportf "step %d: sentinel differs" step;
              asked.(l) <- true;
              0
            | Occupancy l ->
              let l = level l in
              if Cache.occupancy flat.(l) <> Cache_ref.occupancy refs.(l) then
                QCheck.Test.fail_reportf "step %d: occupancy differs" step;
              0
          in
          agree step addr)
        ops;
      true)

(* ------------------------------ TLB ------------------------------- *)

let test_tlb_hit_miss_costs () =
  let t = Tlb.create ~walk_cost:20 () in
  Alcotest.(check int) "cold walk" 21 (Tlb.lookup t ~vpage:1);
  Alcotest.(check int) "warm" 1 (Tlb.lookup t ~vpage:1);
  (* The TLB holds 64 entries: 63 more pages fill it, and vpage 1, the
     least recently used, is evicted by the 64th. *)
  for vpage = 2 to 64 do
    ignore (Tlb.lookup t ~vpage)
  done;
  Alcotest.(check bool) "64 pages fit" true (Tlb.present t ~vpage:1);
  ignore (Tlb.lookup t ~vpage:65);
  Alcotest.(check bool) "LRU evicted" false (Tlb.present t ~vpage:1);
  Alcotest.(check int) "evicted walks again" 21 (Tlb.lookup t ~vpage:1)

let test_tlb_invalidate () =
  let t = Tlb.create () in
  ignore (Tlb.lookup t ~vpage:5);
  Alcotest.(check bool) "present" true (Tlb.present t ~vpage:5);
  Tlb.invalidate t ~vpage:5;
  Alcotest.(check bool) "gone" false (Tlb.present t ~vpage:5)

let test_tlb_flush () =
  let t = Tlb.create () in
  ignore (Tlb.lookup t ~vpage:1);
  ignore (Tlb.lookup t ~vpage:2);
  Tlb.flush t;
  Alcotest.(check bool) "1 gone" false (Tlb.present t ~vpage:1);
  Alcotest.(check bool) "2 gone" false (Tlb.present t ~vpage:2)

(* --------------------------- Hierarchy ----------------------------- *)

let test_hierarchy_read_write () =
  let dram = Dram.create ~size:1024 in
  let h = Hierarchy.create ~dram () in
  let c1 = Hierarchy.write h ~addr:10 99L in
  let v = Hierarchy.read_value h ~addr:10 in
  let c2 = Hierarchy.read_cost h in
  Alcotest.(check int64) "value" 99L v;
  Alcotest.(check bool) "second access cheaper" true (c2 < c1)

let test_hierarchy_io_uncached () =
  let dram = Dram.create ~size:1024 in
  let io = Dram.create ~size:64 in
  let h = Hierarchy.create ~io:(4096, io) ~dram () in
  let c1 = Hierarchy.write h ~addr:4096 7L in
  let v = Hierarchy.read_value h ~addr:4096 in
  let c2 = Hierarchy.read_cost h in
  Alcotest.(check int64) "io value" 7L v;
  Alcotest.(check int) "io write flat cost" 100 c1;
  Alcotest.(check int) "io read flat cost" 100 c2;
  Alcotest.(check int64) "backed by io dram" 7L (Dram.read io 0);
  (* Main DRAM address still routes normally. *)
  ignore (Hierarchy.write h ~addr:0 1L);
  Alcotest.(check int64) "main dram" 1L (Dram.read dram 0)

let test_hierarchy_flush_all_restores_cold () =
  let dram = Dram.create ~size:1024 in
  let h = Hierarchy.create ~dram () in
  let cold = Hierarchy.touch h ~addr:0 in
  let warm = Hierarchy.touch h ~addr:0 in
  Hierarchy.flush_all h;
  let recold = Hierarchy.touch h ~addr:0 in
  Alcotest.(check bool) "warm faster" true (warm < cold);
  Alcotest.(check int) "flush restores cold" cold recold

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "memory"
    [
      ( "dram",
        [
          Alcotest.test_case "read/write" `Quick test_dram_read_write;
          Alcotest.test_case "bus error" `Quick test_dram_bus_error;
          Alcotest.test_case "load/snapshot" `Quick test_dram_load_and_snapshot;
          Alcotest.test_case "hash region" `Quick test_dram_hash_region_sensitive;
          Alcotest.test_case "hash region bytes" `Quick test_dram_hash_region_bytes;
          Alcotest.test_case "never written" `Quick test_dram_never_written;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate" `Quick test_mmu_translate;
          Alcotest.test_case "permissions" `Quick test_mmu_permissions;
          Alcotest.test_case "lock blocks new X" `Quick test_mmu_lock_blocks_new_executable;
          Alcotest.test_case "lock blocks remap/unmap" `Quick
            test_mmu_lock_blocks_remap_and_unmap;
          Alcotest.test_case "lock blocks writable alias" `Quick
            test_mmu_lock_blocks_writable_alias;
          Alcotest.test_case "lock strips W+X" `Quick test_mmu_lock_strips_wx;
          Alcotest.test_case "lock allows data changes" `Quick
            test_mmu_lock_allows_data_changes;
          Alcotest.test_case "lock idempotent" `Quick test_mmu_lock_idempotent;
          qc prop_mmu_lock_monotone;
        ] );
      ( "iommu",
        [
          Alcotest.test_case "grant/revoke" `Quick test_iommu_window_grant_revoke;
          Alcotest.test_case "read-only blocks writes" `Quick
            test_iommu_readonly_window_blocks_writes;
          Alcotest.test_case "windows listing" `Quick test_iommu_windows_listing;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "same line hits" `Quick test_cache_same_line_hits;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "flush line (deep)" `Quick test_cache_flush_line;
          Alcotest.test_case "flush all" `Quick test_cache_flush_all;
          Alcotest.test_case "set mapping" `Quick test_cache_set_mapping;
          qc prop_cache_occupancy_bounded;
          qc prop_cache_matches_reference_lru;
          qc prop_cache_matches_record_reference;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss costs" `Quick test_tlb_hit_miss_costs;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "read/write with caching" `Quick test_hierarchy_read_write;
          Alcotest.test_case "io region uncached" `Quick test_hierarchy_io_uncached;
          Alcotest.test_case "flush restores cold" `Quick
            test_hierarchy_flush_all_restores_cold;
        ] );
    ]
