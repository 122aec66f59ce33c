// Package mlp implements the Multi-Layer Perceptron regressor the paper
// lists as future work (Section V): fully connected ReLU hidden layers,
// trained by mini-batch Adam on squared error.
package mlp
