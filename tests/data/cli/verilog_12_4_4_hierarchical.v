module gear_h_12_4_4_sub8 (
  input  [7:0] A,
  input  [7:0] B,
  output [8:0] S
);
  wire n_1, n_2, n_3, n_5, n_8, n_10, n_13, n_15, n_18, n_20, n_23, n_25, n_28, n_30, n_33, n_35, n_4, n_6, n_7, n_9, n_11, n_12, n_14, n_16, n_17, n_19, n_21, n_22, n_24, n_26, n_27, n_29, n_31, n_32, n_34, n_36, n_37;
  assign n_1 = A[0] ^ B[0];
  assign n_2 = A[0] & B[0];  // group:carry
  assign n_3 = A[1] ^ B[1];
  assign n_5 = A[1] & B[1];  // group:carry
  assign n_8 = A[2] ^ B[2];
  assign n_10 = A[2] & B[2];  // group:carry
  assign n_13 = A[3] ^ B[3];
  assign n_15 = A[3] & B[3];  // group:carry
  assign n_18 = A[4] ^ B[4];
  assign n_20 = A[4] & B[4];  // group:carry
  assign n_23 = A[5] ^ B[5];
  assign n_25 = A[5] & B[5];  // group:carry
  assign n_28 = A[6] ^ B[6];
  assign n_30 = A[6] & B[6];  // group:carry
  assign n_33 = A[7] ^ B[7];
  assign n_35 = A[7] & B[7];  // group:carry
  assign n_4 = n_3 ^ n_2;  // group:carry
  assign n_6 = n_3 & n_2;  // group:carry
  assign n_7 = n_5 | n_6;  // group:carry
  assign n_9 = n_8 ^ n_7;  // group:carry
  assign n_11 = n_8 & n_7;  // group:carry
  assign n_12 = n_10 | n_11;  // group:carry
  assign n_14 = n_13 ^ n_12;  // group:carry
  assign n_16 = n_13 & n_12;  // group:carry
  assign n_17 = n_15 | n_16;  // group:carry
  assign n_19 = n_18 ^ n_17;  // group:carry
  assign n_21 = n_18 & n_17;  // group:carry
  assign n_22 = n_20 | n_21;  // group:carry
  assign n_24 = n_23 ^ n_22;  // group:carry
  assign n_26 = n_23 & n_22;  // group:carry
  assign n_27 = n_25 | n_26;  // group:carry
  assign n_29 = n_28 ^ n_27;  // group:carry
  assign n_31 = n_28 & n_27;  // group:carry
  assign n_32 = n_30 | n_31;  // group:carry
  assign n_34 = n_33 ^ n_32;  // group:carry
  assign n_36 = n_33 & n_32;  // group:carry
  assign n_37 = n_35 | n_36;  // group:carry
  assign S[0] = n_1;
  assign S[1] = n_4;
  assign S[2] = n_9;
  assign S[3] = n_14;
  assign S[4] = n_19;
  assign S[5] = n_24;
  assign S[6] = n_29;
  assign S[7] = n_34;
  assign S[8] = n_37;
endmodule

module gear_h_12_4_4 (
  input  [11:0] A,
  input  [11:0] B,
  output [12:0] S,
  output [0:0] ERR
);
  wire [8:0] win0;
  gear_h_12_4_4_sub8 u0 (.A(A[7:0]), .B(B[7:0]), .S(win0));
  wire [8:0] win1;
  gear_h_12_4_4_sub8 u1 (.A(A[11:4]), .B(B[11:4]), .S(win1));
  assign S[0] = win0[0];
  assign S[1] = win0[1];
  assign S[2] = win0[2];
  assign S[3] = win0[3];
  assign S[4] = win0[4];
  assign S[5] = win0[5];
  assign S[6] = win0[6];
  assign S[7] = win0[7];
  assign S[8] = win1[4];
  assign S[9] = win1[5];
  assign S[10] = win1[6];
  assign S[11] = win1[7];
  assign S[12] = win1[8];
  assign ERR[0] = ((A[4] ^ B[4]) & (A[5] ^ B[5]) & (A[6] ^ B[6]) & (A[7] ^ B[7])) & win0[8];
endmodule
