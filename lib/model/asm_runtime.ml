let library =
  {|
; ---- runtime library (leaf routines; call: jal r15, return: jr r15) ----
rt_memcpy:            ; r1 dst, r2 src, r3 len; clobbers r6..r9
  movi r6, 0
  movi r8, 1
rt_memcpy_loop:
  bge  r6, r3, @rt_memcpy_done
  add  r7, r2, r6
  load r7, r7, 0
  add  r9, r1, r6
  store r9, r7, 0
  add  r6, r6, r8
  jmp  @rt_memcpy_loop
rt_memcpy_done:
  jr   r15

rt_memset:            ; r1 dst, r2 value, r3 len; clobbers r6, r8, r9
  movi r6, 0
  movi r8, 1
rt_memset_loop:
  bge  r6, r3, @rt_memset_done
  add  r9, r1, r6
  store r9, r2, 0
  add  r6, r6, r8
  jmp  @rt_memset_loop
rt_memset_done:
  jr   r15

rt_checksum:          ; r1 base, r2 len -> r1 sum; clobbers r6..r9
  movi r6, 0
  movi r7, 0
  movi r8, 1
rt_checksum_loop:
  bge  r6, r2, @rt_checksum_done
  add  r9, r1, r6
  load r9, r9, 0
  add  r7, r7, r9
  add  r6, r6, r8
  jmp  @rt_checksum_loop
rt_checksum_done:
  mov  r1, r7
  jr   r15

rt_find_max:          ; r1 base, r2 len -> r1 index of max; clobbers r6..r10
  movi r6, 1
  movi r7, 0
  load r8, r1, 0
  movi r9, 1
rt_find_max_loop:
  bge  r6, r2, @rt_find_max_done
  add  r10, r1, r6
  load r10, r10, 0
  bge  r8, r10, @rt_find_max_skip
  mov  r8, r10
  mov  r7, r6
rt_find_max_skip:
  add  r6, r6, r9
  jmp  @rt_find_max_loop
rt_find_max_done:
  mov  r1, r7
  jr   r15
|}
